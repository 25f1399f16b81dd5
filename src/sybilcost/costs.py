"""Closed-form adversary cost laws, marginal costs, and composition.

The central quantity is the minimum expenditure needed to keep s units of
influence active for T consecutive windows.  One law, `cost_carry_over`,
states it for every carry-over rule (alpha, k) that `resources.carry_over`
reads from a resource's property flags: the alpha share of a purchase lasts
k windows and the rest is bought anew every window.  The regimes are points
on that scale: parallelizable stock is (1, None), bought once;
throughput-bounded flow is (0, 1), nothing carried over; partial
transferability (alpha, None) and bounded reuse (1, k) lie in between.
Hybrid resources compose additively.  Degenerate targets cost nothing:
C(0, T) = C(s, 0) = 0 by convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

__all__ = [
    "CoordinationModel",
    "CostReport",
    "CROSSOVER_HORIZONS",
    "CROSSOVER_THRESHOLDS",
    "LINEAR_COORDINATION",
    "PartialTransferCost",
    "ZERO_COORDINATION",
    "acquisition_schedule",
    "cost_bounded_reuse",
    "cost_carry_over",
    "cost_hybrid",
    "cost_parallelizable",
    "cost_partial_transferability",
    "cost_throughput_bounded",
    "crossover",
    "crossover_table",
    "governance_hybrid",
]


def _check_counts(s: int, T: int) -> None:
    if type(s) is not int or s < 0:
        raise ValueError(f"s must be a nonnegative integer, got {s!r}")
    if type(T) is not int or T < 0:
        raise ValueError(f"T must be a nonnegative integer, got {T!r}")


class CoordinationModel(Enum):
    """Overhead h(s, T) of operating s identities for T windows; each value is a CLI name.

    ZERO is h = 0 and LINEAR_SUM is h = s + T, with the empty cases h(0, T) =
    h(s, 0) = 0 so degenerate targets stay free.  Both grow strictly slower
    than s*T, which is what keeps stock acquisition asymptotically cheap.
    """

    ZERO = "zero"
    LINEAR_SUM = "linear"

    def evaluate(self, s: int, T: int) -> float:
        _check_counts(s, T)
        if self is CoordinationModel.LINEAR_SUM and s >= 1 and T >= 1:
            return float(s + T)
        return 0.0


ZERO_COORDINATION = CoordinationModel.ZERO
LINEAR_COORDINATION = CoordinationModel.LINEAR_SUM


@dataclass(frozen=True)
class CostReport:
    """Total cost with its stock / flow / coordination decomposition.

    ``total`` is stock + flow + coordination.  `cost_carry_over` and
    `governance_hybrid` sum them in exact rationals and round once, and
    `cost_hybrid` adds its components' totals, so a total can differ from the
    float sum of the three parts in the last bit.  ``marginal`` is the cost of
    the s-th unit, Delta(s, T) = C(s, T) - C(s - 1, T), and ``normalized`` is
    total / (s * T), or None when the target is degenerate; those two laws
    round each once too, so at s = 1 the marginal equals the total.
    """

    s: int
    T: int
    total: float
    stock: float
    flow: float
    coordination: float
    marginal: float
    normalized: float | None


def _check_args(s: int, T: int, r_min: float) -> None:
    _check_counts(s, T)
    if not (math.isfinite(r_min) and r_min > 0):
        raise ValueError(f"r_min must be finite and positive, got {r_min}")


def _rounded_once(
    count: int, renewals: int, T: int, unit: float, alpha: float, h: float = 0.0, divisor: int = 1
) -> float:
    """(count * unit * (alpha * renewals + (1 - alpha) * T) + h) / divisor, exact, rounded once."""
    (a, b), (p, q) = alpha.as_integer_ratio(), unit.as_integer_ratio()
    c, d = h.as_integer_ratio()
    try:
        return (count * p * (a * renewals + (b - a) * T) * d + c * b * q) / (b * q * d * divisor)
    except OverflowError:
        return math.inf  # past the float range


def cost_carry_over(
    s: int,
    T: int,
    r_min: float,
    alpha: float,
    k: int | None,
    coordination: CoordinationModel = ZERO_COORDINATION,
) -> CostReport:
    """The one cost law, for the carry-over rule (alpha, k) of `resources.carry_over`.

    C(s, T) = alpha * s * ceil(T / k) * r_min + (1 - alpha) * s * T * r_min + h(s, T):
    the alpha share of a purchase stays usable for k windows and the rest is
    bought again every window.  With k = None the alpha share is bought once
    and reported as stock; with an integer k every purchase is flow, even when
    k >= T, since nothing outlives k windows.  The total and each share are
    sums in exact rationals, rounded once, or inf past the float range.  The marginal
    Delta(s, T) = (alpha * ceil(T / k) + (1 - alpha) * T) * r_min + h(s, T) - h(s - 1, T)
    is rounded once the same way, so at s = 1 it equals the total, and so is
    ``normalized``, C(s, T) / (s * T): r_min itself when the whole amount is
    bought anew every window and h = 0.
    """
    _check_args(s, T, r_min)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if k is not None and (type(k) is not int or k < 1):
        raise ValueError(f"k must be a positive integer window count, got {k!r}")
    if s == 0 or T == 0:
        return CostReport(s, T, 0.0, 0.0, 0.0, 0.0, 0.0, None)
    renewals = 1 if k is None else -(-T // k)
    if k is None:
        # T = 0 leaves the alpha share alone, and renewals = 0 the (1 - alpha) share.
        stock = _rounded_once(s, renewals, 0, r_min, alpha)
        flow = _rounded_once(s, 0, T, r_min, alpha)
    else:
        stock, flow = 0.0, _rounded_once(s, renewals, T, r_min, alpha)
    overhead = coordination.evaluate(s, T)
    total = _rounded_once(s, renewals, T, r_min, alpha, overhead)
    # h takes whole-number values, so the float difference of two of them is exact.
    step = overhead - coordination.evaluate(s - 1, T)
    marginal = _rounded_once(1, renewals, T, r_min, alpha, step)
    normalized = _rounded_once(s, renewals, T, r_min, alpha, overhead, s * T)
    return CostReport(s, T, total, stock, flow, overhead, marginal, normalized)


def acquisition_schedule(alpha: float, k: int, T: int, aggregate: float) -> tuple[float, ...]:
    """Cheapest acquisition events that keep `aggregate` deployed each window.

    The law's per-window form under the rule (alpha, k): the aggregate every k windows,
    and in between the (1 - alpha) share the previous window spent, rounded once.
    """
    spent = _rounded_once(1, 0, 1, aggregate, alpha) if math.isfinite(aggregate) else math.inf
    return tuple([aggregate if window % k == 0 else spent for window in range(T)])


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

    The stake component is parallelizable; the channel component renews every
    window, so the composed cost keeps the channel component's linear floor.
    Unlike `cost_hybrid`, which only sees two rounded reports, this knows both
    thresholds: its total, marginal and normalized ratio are each the exact
    sum of the two components, rounded once.
    """
    report = cost_hybrid(
        cost_parallelizable(s, T, stake_r_min, coordination),
        cost_throughput_bounded(s, T, channel_r_min),
    )
    if s == 0 or T == 0:
        return report
    (a, b), (c, d) = stake_r_min.as_integer_ratio(), channel_r_min.as_integer_ratio()
    # h takes whole-number values, so int() keeps each one exact.
    overhead = int(report.coordination)
    step = overhead - int(coordination.evaluate(s - 1, T))

    def once(stake: int, channel: int, h: int, divisor: int = 1) -> float:
        """(stake * stake_r_min + channel * channel_r_min + h) / divisor, exact, rounded once."""
        try:
            return (stake * a * d + channel * c * b + h * b * d) / (b * d * divisor)
        except OverflowError:
            return math.inf  # past the float range

    return replace(
        report,
        total=once(s, s * T, overhead),
        marginal=once(1, T, step),
        normalized=once(s, s * T, overhead, s * T),
    )


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
    if T < 1:
        raise ValueError(f"T must be at least 1, got {T}")
    if not (math.isfinite(r_min) and r_min > 0):
        raise ValueError(f"r_min must be finite and positive, got {r_min}")
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
