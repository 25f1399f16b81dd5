"""Discrete-window simulation of an adversary against unit-weight honest validators.

Each honest validator holds exactly the activation threshold of resource, so
its influence is one threshold unit per window.  The adversary fields s sybil
identities backed by the configured resource; for channel-backed resources
each identity must occupy its own channel, which caps the number of active
identities at the channel count and makes extra identities worthless.  The
windows are paid for under the resource's carry-over rule from `resources`,
the same rule the oracle prices plans with, and the total is that rule's
closed form from `law`, so a simulation never loads the oracle.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, fields

from . import law
from .resources import ResourceSpec, carry_over
from .resources import classify  # noqa: F401  (an attribute the benchmark tracer wraps)

__all__ = [
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
    for name, value in (("m", m), ("s", s), ("n", n)):
        law._check_count(name, value)
    if min(m, s) + n == 0:
        raise ValueError("share is undefined with no active identities and no honest validators")
    return _share(m, s, n)


def _share(m: int, s: int, n: int) -> float:
    # `influence_share` without its checks, for callers that made them already.
    active = min(m, s)
    return active / (active + n)


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation setup: honest pool, channels, sybil count, horizon, resource."""

    n_honest: int
    m: int
    s: int
    T: int
    spec: ResourceSpec

    def __post_init__(self) -> None:
        # The honest count is n, as in `influence_share` and on the command line.
        for name, value in (("n", self.n_honest), ("m", self.m), ("s", self.s)):
            law._check_count(name, value)
        law._check_count("T", self.T, 1)


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
    min(m, s); any other resource activates all s identities.  The share is
    `influence_share` with m channels, or with s for a resource that has none.
    Each active identity holds the threshold, and the windows are paid for by
    the acquisition schedule of the resource's carry-over rule (alpha, k) for
    that aggregate: anew every window for window-local flow, (0, 1), once up
    front for reusable stock, (1, T).  The total is `law.cost_carry_over` at
    that rule, the law's exactly rounded sum, not the float sum of the rows.  A
    resource with no carry-over rule, or a scenario with no participants,
    raises ValueError, and a trace whose T rows hold more values than
    `law.DEFAULT_PLAN_CEILING` raises `law.PlanBudgetExceeded` before any row
    is built.
    """
    spec = config.spec
    alpha, k = carry_over(spec, config.T)
    channels = config.m if spec.throughput_bounded else config.s
    share = influence_share(channels, config.s, config.n_honest)
    active = min(channels, config.s)
    adversary = active * spec.r_min
    total = (active + config.n_honest) * spec.r_min
    law._check_rows("a trace", config.T, len(fields(WindowRow)))
    schedule = law.acquisition_schedule(alpha, k, config.T, adversary)
    rows = [
        WindowRow(
            window=window,
            active_identities=active,
            adversary_influence=adversary,
            total_influence=total,
            share=share,
            window_cost=cost,
        )
        for window, cost in enumerate(schedule, start=1)
    ]
    total = law.cost_carry_over(active, config.T, spec.r_min, alpha, k).total
    return SimTrace(tuple(rows), total)


def non_amplification_experiment(m_range, s_values, n: int) -> Iterator[tuple[float, ...]]:
    """Rows of `influence_share(m, s, n)`: one row per m in m_range, one cell per s in s_values.

    The rows come one at a time, and a sequence such as a range is not
    copied, so a long channel range is never held as a table.  The inputs are
    checked, and warned about, when this is called, not when a row is taken.
    When every identity count exceeds the whole channel range, the share
    depends on channels alone and the columns coincide.  A sweep where some
    identity count falls inside the channel range still runs, with a warning,
    since its column will bend where identities become the binding side.
    """
    m_values = m_range if isinstance(m_range, Sequence) else tuple(m_range)
    s_tuple = tuple(s_values)
    if not m_values or not s_tuple:
        raise ValueError("m_range and s_values must be nonempty")
    if len(set(s_tuple)) != len(s_tuple):
        raise ValueError(f"s_values must not repeat an identity count, got {list(s_tuple)}")
    for name, values in (("m", m_values), ("s", s_tuple)):
        for value in values:
            law._check_count(name, value)
    # This checks n, and fails exactly when some cell has no participants.
    influence_share(min(m_values), min(s_tuple), n)
    if min(s_tuple) <= max(m_values):
        warnings.warn(
            "identity counts do not all exceed the channel range; share columns may differ",
            stacklevel=2,
        )
    # A list per row: tuple() over a generator shrinks a spare-slot tuple, and a freed
    # shrunk tuple joins its size's free list without having taken from it.
    return (tuple([_share(m, s, n) for s in s_tuple]) for m in m_values)
