"""Closed-form adversary cost laws, marginal costs, and composition.

The central quantity is the minimum expenditure needed to keep s units of
influence active for T consecutive windows.  For a parallelizable resource
this is a one-time stock acquisition plus coordination overhead; for a
throughput-bounded resource the full amount must be re-spent every window.
The two intermediate regimes (partial transferability, bounded reuse)
interpolate between those extremes, and hybrid resources compose additively.
Degenerate targets cost nothing: C(0, T) = C(s, 0) = 0 by convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

__all__ = [
    "CoordinationKind",
    "CoordinationModel",
    "CostReport",
    "CROSSOVER_HORIZONS",
    "CROSSOVER_THRESHOLDS",
    "LINEAR_COORDINATION",
    "PartialTransferCost",
    "ZERO_COORDINATION",
    "cost_bounded_reuse",
    "cost_hybrid",
    "cost_parallelizable",
    "cost_partial_transferability",
    "cost_throughput_bounded",
    "crossover",
    "crossover_table",
    "governance_hybrid",
    "marginal_cost",
    "parallelizable_law",
    "throughput_law",
    "zero_report",
]


class CoordinationKind(Enum):
    ZERO = "zero"
    LINEAR_SUM = "linear"


@dataclass(frozen=True)
class CoordinationModel:
    """Overhead h(s, T) of operating s identities for T windows.

    The two kinds are Zero (h = 0) and LinearSum (h = s + T, with the empty
    cases h(0, T) = h(s, 0) = 0 so degenerate targets stay free).  Both grow
    strictly slower than s*T, which is what keeps stock acquisition
    asymptotically cheap.
    """

    kind: CoordinationKind

    @classmethod
    def zero(cls) -> "CoordinationModel":
        return cls(CoordinationKind.ZERO)

    @classmethod
    def linear_sum(cls) -> "CoordinationModel":
        return cls(CoordinationKind.LINEAR_SUM)

    def evaluate(self, s: int, T: int) -> float:
        if s < 0 or T < 0:
            raise ValueError(f"s and T must be nonnegative, got ({s}, {T})")
        if self.kind is CoordinationKind.LINEAR_SUM and s >= 1 and T >= 1:
            return float(s + T)
        return 0.0


ZERO_COORDINATION = CoordinationModel.zero()
LINEAR_COORDINATION = CoordinationModel.linear_sum()


@dataclass(frozen=True)
class CostReport:
    """Total cost with its stock / flow / coordination decomposition.

    ``total`` is always stock + flow + coordination.  ``marginal`` is the
    cost of the s-th unit, C(s, T) - C(s - 1, T).  ``normalized`` is
    total / (s * T), or None when the target is degenerate.
    """

    s: int
    T: int
    total: float
    stock: float
    flow: float
    coordination: float
    marginal: float
    normalized: float | None


_AUTO = object()


def _report(
    s: int,
    T: int,
    stock: float,
    flow: float,
    coordination: float,
    marginal: float,
    normalized: object = _AUTO,
) -> CostReport:
    total = stock + flow + coordination
    if normalized is _AUTO:
        normalized = total / (s * T) if s >= 1 and T >= 1 else None
    return CostReport(s, T, total, stock, flow, coordination, marginal, normalized)  # type: ignore[arg-type]


def zero_report(s: int = 0, T: int = 0) -> CostReport:
    """Degenerate report: an empty target or horizon costs nothing."""
    return CostReport(s, T, 0.0, 0.0, 0.0, 0.0, 0.0, None)


def _check_args(s: int, T: int, r_min: float) -> None:
    if s < 0:
        raise ValueError(f"s must be nonnegative, got {s}")
    if T < 0:
        raise ValueError(f"T must be nonnegative, got {T}")
    if not (math.isfinite(r_min) and r_min > 0):
        raise ValueError(f"r_min must be finite and positive, got {r_min}")


def cost_parallelizable(
    s: int, T: int, r_min: float, coordination: CoordinationModel = ZERO_COORDINATION
) -> CostReport:
    """Stock acquisition once, reused every window: s * r_min + h(s, T).

    The horizon enters only through coordination overhead, so with Zero
    coordination the total is T-independent.
    """
    _check_args(s, T, r_min)
    if s == 0 or T == 0:
        return zero_report(s, T)
    stock = s * r_min
    overhead = coordination.evaluate(s, T)
    marginal = r_min + (overhead - coordination.evaluate(s - 1, T))
    return _report(s, T, stock=stock, flow=0.0, coordination=overhead, marginal=marginal)


def cost_throughput_bounded(s: int, T: int, r_min: float) -> CostReport:
    """Per-window renewal with no carry-over: s * T * r_min, all flow.

    The normalized ratio is r_min at every non-degenerate point; the bound is
    tight, so no coordination term appears.
    """
    _check_args(s, T, r_min)
    if s == 0 or T == 0:
        return zero_report(s, T)
    flow = (s * T) * r_min
    return _report(
        s, T, stock=0.0, flow=flow, coordination=0.0, marginal=r_min * T, normalized=r_min
    )


class PartialTransferCost(NamedTuple):
    """Floor and two-part strategy cost for a partially transferable resource."""

    lower_bound: float
    model_cost: float


def cost_partial_transferability(
    s: int,
    T: int,
    r_min: float,
    alpha: float,
    coordination: CoordinationModel = ZERO_COORDINATION,
) -> PartialTransferCost:
    """Costs when only a fraction alpha of an allocation can move between identities.

    The identity-bound remainder must be re-acquired every window, which
    forces the lower bound (1 - alpha) * s * T * r_min on any strategy.  The
    model cost acquires the transferable fraction once as stock and renews
    the rest as flow; alpha = 1 recovers the parallelizable law and alpha = 0
    the throughput-bounded one.
    """
    _check_args(s, T, r_min)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if s == 0 or T == 0:
        return PartialTransferCost(0.0, 0.0)
    bound_flow = (1.0 - alpha) * ((s * T) * r_min)
    model = alpha * (s * r_min) + bound_flow + coordination.evaluate(s, T)
    return PartialTransferCost(bound_flow, model)


def cost_bounded_reuse(s: int, T: int, r_min: float, k: int) -> CostReport:
    """Stock that survives only k consecutive windows: re-acquired ceil(T / k) times.

    k = 1 recovers per-window renewal; k >= T recovers a single acquisition.
    All expenditure is classified as flow because nothing survives the horizon
    indefinitely.
    """
    _check_args(s, T, r_min)
    if type(k) is not int or k < 1:
        raise ValueError(f"k must be a positive integer window count, got {k!r}")
    if s == 0 or T == 0:
        return zero_report(s, T)
    renewals = -(-T // k)
    flow = (s * renewals) * r_min
    return _report(s, T, stock=0.0, flow=flow, coordination=0.0, marginal=renewals * r_min)


def cost_hybrid(parallel_part: CostReport, bounded_part: CostReport) -> CostReport:
    """Additive composition of a parallelizable and a throughput-bounded component.

    Both reports must describe the same (s, T) target.  The composed total
    inherits the bounded component's floor, so it is never below
    r_min_bounded * s * T.
    """
    if (parallel_part.s, parallel_part.T) != (bounded_part.s, bounded_part.T):
        raise ValueError(
            "component reports disagree on the target: "
            f"({parallel_part.s}, {parallel_part.T}) vs ({bounded_part.s}, {bounded_part.T})"
        )
    return _report(
        parallel_part.s,
        parallel_part.T,
        stock=parallel_part.stock + bounded_part.stock,
        flow=parallel_part.flow + bounded_part.flow,
        coordination=parallel_part.coordination + bounded_part.coordination,
        marginal=parallel_part.marginal + bounded_part.marginal,
    )


def governance_hybrid(
    s: int,
    T: int,
    stake_r_min: float = 1.0,
    channel_r_min: float = 1.0,
    coordination: CoordinationModel = ZERO_COORDINATION,
) -> CostReport:
    """Token-vote governance backed by stake plus one rate-limited channel per voter.

    The stake component is parallelizable; the channel component renews every
    window, so the composed cost keeps the channel component's linear floor.
    """
    return cost_hybrid(
        cost_parallelizable(s, T, stake_r_min, coordination),
        cost_throughput_bounded(s, T, channel_r_min),
    )


def marginal_cost(law: Callable[[int, int], float], s: int, T: int) -> float:
    """C(s, T) - C(s - 1, T) under an arbitrary total-cost law, with C(0, T) = 0."""
    if s < 1:
        raise ValueError(f"marginal cost needs s >= 1, got {s}")
    return law(s, T) - law(s - 1, T)


def parallelizable_law(
    r_min: float, coordination: CoordinationModel = ZERO_COORDINATION
) -> Callable[[int, int], float]:
    """Total-cost law handle for the parallelizable regime."""

    def law(s: int, T: int) -> float:
        return cost_parallelizable(s, T, r_min, coordination).total

    return law


def throughput_law(r_min: float) -> Callable[[int, int], float]:
    """Total-cost law handle for the throughput-bounded regime."""

    def law(s: int, T: int) -> float:
        return cost_throughput_bounded(s, T, r_min).total

    return law


# ---------------------------------------------------------------------------
# Regime crossover
# ---------------------------------------------------------------------------

CROSSOVER_HORIZONS: tuple[int, ...] = (10, 25, 50, 100, 200)
CROSSOVER_THRESHOLDS: tuple[float, ...] = (0.5, 1.0, 2.0)


def crossover(T: int, r_min: float) -> float | None:
    """Identity count above which per-window renewal outcosts one-time stock.

    Under LinearSum coordination the two laws meet at
    s* = T / (T * r_min - r_min - 1).  Returns None when the horizon is too
    short for the comparison to flip (T * r_min <= r_min + 1), in which case
    renewal stays the cheaper side for every s.
    """
    if T < 1:
        raise ValueError(f"T must be at least 1, got {T}")
    if not (math.isfinite(r_min) and r_min > 0):
        raise ValueError(f"r_min must be finite and positive, got {r_min}")
    denominator = T * r_min - r_min - 1.0
    if denominator <= 0:
        return None
    return T / denominator


def crossover_table(
    horizons: tuple[int, ...] = CROSSOVER_HORIZONS,
    thresholds: tuple[float, ...] = CROSSOVER_THRESHOLDS,
) -> tuple[tuple[int, float, float | None], ...]:
    """Crossover thresholds over a (T, r_min) grid, one row per cell."""
    return tuple(
        (T, r_min, crossover(T, r_min)) for T in horizons for r_min in thresholds
    )
