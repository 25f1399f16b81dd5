"""The named regime laws, hybrid composition and regime crossover.

Each regime is one point on the carry-over scale of `law.cost_carry_over`:
parallelizable stock is (1, None), bought once; throughput-bounded flow is
(0, 1), nothing carried over; partial transferability (alpha, None) and
bounded reuse (1, k) lie in between.  `governance_hybrid` is the law at two
parts, stake and channel, and `cost_hybrid` adds two reports.  Only
`crossover` does arithmetic here, one integer quotient.  Degenerate targets
cost nothing: C(0, T) = C(s, 0) = 0 by convention.
"""

from __future__ import annotations

from typing import NamedTuple

from .law import ZERO_COORDINATION, CoordinationModel, CostReport, _check_args, _check_count
from .law import _check_positive, _report, cost_carry_over

__all__ = [
    "CROSSOVER_HORIZONS",
    "CROSSOVER_THRESHOLDS",
    "PartialTransferCost",
    "cost_bounded_reuse",
    "cost_hybrid",
    "cost_parallelizable",
    "cost_partial_transferability",
    "cost_throughput_bounded",
    "crossover",
    "crossover_table",
    "governance_hybrid",
]


def cost_parallelizable(
    s: int, T: int, r_min: float, coordination: CoordinationModel = ZERO_COORDINATION
) -> CostReport:
    """Stock acquisition once, reused every window: s * r_min + h(s, T).

    The horizon enters only through coordination overhead, so with Zero
    coordination the total is T-independent.
    """
    return cost_carry_over(s, T, r_min, 1.0, None, coordination)


def cost_throughput_bounded(s: int, T: int, r_min: float) -> CostReport:
    """Per-window renewal with no carry-over: s * T * r_min, all flow.

    The normalized ratio is r_min at every non-degenerate point; the bound is
    tight, so no coordination term appears.
    """
    return cost_carry_over(s, T, r_min, 0.0, 1)


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
    report = cost_carry_over(s, T, r_min, alpha, None, coordination)
    return PartialTransferCost(report.flow, report.total)


def cost_bounded_reuse(s: int, T: int, r_min: float, k: int) -> CostReport:
    """Stock that survives only k consecutive windows: re-acquired ceil(T / k) times.

    k = 1 recovers per-window renewal; k >= T recovers a single acquisition.
    All expenditure is classified as flow because nothing survives the horizon
    indefinitely.
    """
    return cost_carry_over(s, T, r_min, 1.0, k)


def cost_hybrid(parallel_part: CostReport, bounded_part: CostReport) -> CostReport:
    """Additive composition of a parallelizable and a throughput-bounded component.

    Both reports must describe the same (s, T) target.  The composed total
    inherits the bounded component's floor, so it is never below
    r_min_bounded * s * T.  The total and the marginal are each the rounded
    sum of the components' values, so at s = 1 they agree as the components do.
    """
    if (parallel_part.s, parallel_part.T) != (bounded_part.s, bounded_part.T):
        raise ValueError(
            "component reports disagree on the target: "
            f"({parallel_part.s}, {parallel_part.T}) vs ({bounded_part.s}, {bounded_part.T})"
        )
    s, T = parallel_part.s, parallel_part.T
    stock = parallel_part.stock + bounded_part.stock
    flow = parallel_part.flow + bounded_part.flow
    coordination = parallel_part.coordination + bounded_part.coordination
    total = parallel_part.total + bounded_part.total
    normalized = total / (s * T) if s >= 1 and T >= 1 else None
    marginal = parallel_part.marginal + bounded_part.marginal
    return CostReport(s, T, total, stock, flow, coordination, marginal, normalized)


def governance_hybrid(
    s: int,
    T: int,
    stake_r_min: float = 1.0,
    channel_r_min: float = 1.0,
    coordination: CoordinationModel = ZERO_COORDINATION,
) -> CostReport:
    """Token-vote governance backed by stake plus one rate-limited channel per voter.

    It prices the capped-vote model: each identity's vote counts one unit, so
    s votes need s identities, each with r_stake of stake and its own
    channel renewed every window.  The stake share is parallelizable and the
    channel share renews, so the cost keeps the channel's linear floor:
    s * r_stake + s * T * r_channel + h(s, T).  With stake-weighted votes the
    cap is gone and one identity can pool all the stake behind one channel for
    s * r_stake + T * r_channel, which this law does not price.  It is the
    law at two parts, stake (r_stake, 1, None) and channel (r_channel, 0, 1),
    so unlike `cost_hybrid`, which only sees two rounded reports, its shares,
    total, marginal and normalized ratio are each an exact sum, rounded once.
    """
    _check_args(s, T, stake_r_min)
    _check_args(s, T, channel_r_min)
    return _report(s, T, ((stake_r_min, 1.0, None), (channel_r_min, 0.0, 1)), coordination)


# ---------------------------------------------------------------------------
# Regime crossover
# ---------------------------------------------------------------------------

CROSSOVER_HORIZONS: tuple[int, ...] = (10, 25, 50, 100, 200)
CROSSOVER_THRESHOLDS: tuple[float, ...] = (0.5, 1.0, 2.0)


def crossover(T: int, r_min: float) -> float | None:
    """Identity count above which per-window renewal outcosts one-time stock.

    Under LinearSum coordination the two laws meet at s* = T / (T * r_min - r_min - 1),
    with r_min = p / q the integer quotient T * q / ((T - 1) * p - q), rounded once.
    Returns None when the horizon is too short for the comparison to flip
    (T * r_min <= r_min + 1), in which case renewal stays the cheaper side for every s.
    """
    _check_count("T", T, 1)
    _check_positive("r_min", r_min)
    p, q = r_min.as_integer_ratio()
    denominator = (T - 1) * p - q
    if denominator <= 0:
        return None
    return T * q / denominator


def crossover_table() -> tuple[tuple[int, float, float | None], ...]:
    """Crossover thresholds over CROSSOVER_HORIZONS x CROSSOVER_THRESHOLDS, one row per cell."""
    return tuple(
        [(T, r, crossover(T, r)) for T in CROSSOVER_HORIZONS for r in CROSSOVER_THRESHOLDS]
    )
