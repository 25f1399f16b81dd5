"""The one closed-form cost law, its report and its per-window form.

The central quantity is the minimum expenditure needed to keep s units of
influence active for T consecutive windows.  One law, `cost_carry_over`,
states it for every carry-over rule (alpha, k) that `resources.carry_over`
reads from a resource's property flags: the alpha share of a purchase lasts
k windows and the rest is bought anew every window.  A resource is priced as
(r_min, alpha, k) parts, summed exactly per identity and rounded once per
figure, so a hybrid is two parts.  `acquisition_schedule` is the same law
window by window.  The named regimes, composition and crossover are in
`costs`; the oracle, the plan model and the simulation price with this module
alone.  Degenerate targets cost nothing: C(0, T) = C(s, 0) = 0 by convention.
The input rules that every module checks its arguments with (counts,
thresholds and the carry-over bounds) are written once here, in
`_check_count`, `_check_positive` and `_check_rule`, and so is the plan
ceiling, `DEFAULT_PLAN_CEILING`, past which `_check_rows` refuses a T-row result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "CoordinationModel",
    "CostReport",
    "DEFAULT_PLAN_CEILING",
    "LINEAR_COORDINATION",
    "PlanBudgetExceeded",
    "ZERO_COORDINATION",
    "acquisition_schedule",
    "cost_carry_over",
]


DEFAULT_PLAN_CEILING = 10_000_000


class PlanBudgetExceeded(RuntimeError):
    """A grid counts more window configurations, or a witness or trace would hold more values,
    than the plan ceiling allows; the scan itself visits fewer configurations than the grid."""


def _check_rows(what: str, T: int, width: int, ceiling: int | None = None) -> None:
    """Refuse `what`, T rows of `width` values, past the ceiling (`DEFAULT_PLAN_CEILING` if None)."""
    size, limit = T * width, DEFAULT_PLAN_CEILING if ceiling is None else ceiling
    if size > limit:
        raise PlanBudgetExceeded(f"{what} of {size} values exceeds the ceiling of {limit}")


def _check_count(name: str, value: int, least: int = 0) -> None:
    """Refuse a count that is not an int (a bool is not one) at least `least`."""
    if type(value) is not int or value < least:
        kind = f"an integer at least {least}" if least else "a nonnegative integer"
        raise ValueError(f"{name} must be {kind}, got {value!r}")


def _check_positive(name: str, value: float) -> None:
    """Refuse a threshold that is not finite and above zero."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def _check_rule(alpha: float, k: int | None) -> None:
    """Refuse alpha outside [0, 1] or k not an int at least 1; k = None is no renewal."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if k is not None and (type(k) is not int or k < 1):
        raise ValueError(f"k must be a positive integer window count, got {k!r}")


def _check_counts(s: int, T: int) -> None:
    _check_count("s", s)
    _check_count("T", T)


class CoordinationModel(Enum):
    """Overhead h(s, T) of operating s identities for T windows; each value is a CLI name.

    ZERO is h = 0 and LINEAR_SUM is h = s + T, with the empty cases h(0, T) =
    h(s, 0) = 0 so degenerate targets stay free.  Both grow strictly slower
    than s*T, which is what keeps stock acquisition asymptotically cheap.
    """

    ZERO = "zero"
    LINEAR_SUM = "linear"

    def evaluate(self, s: int, T: int) -> int:
        """h(s, T) as an exact integer, so a sum with it is rounded once, after the sum."""
        _check_counts(s, T)
        if self is CoordinationModel.LINEAR_SUM and s >= 1 and T >= 1:
            return s + T
        return 0


ZERO_COORDINATION = CoordinationModel.ZERO
LINEAR_COORDINATION = CoordinationModel.LINEAR_SUM


@dataclass(frozen=True)
class CostReport:
    """Total cost with its stock / flow / coordination decomposition.

    ``total`` is stock + flow + coordination.  `cost_carry_over` and
    `costs.governance_hybrid` build their reports in one place, which sums
    them in exact rationals and rounds once, and `costs.cost_hybrid` adds its
    components' totals, so a total can differ from the float sum of the three
    parts in the last bit.  ``marginal`` is the cost of the s-th unit,
    Delta(s, T) = C(s, T) - C(s - 1, T), and ``normalized`` is total / (s * T),
    or None when the target is degenerate; those two laws round each once too,
    so at s = 1 the marginal equals the total.
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
    _check_positive("r_min", r_min)


# A resource as its parts, each one share (r_min, alpha, k) under the carry-over rule (alpha, k).
_Parts = tuple[tuple[float, float, int | None], ...]


def _exact(T: int, parts: _Parts) -> tuple[int, int, int]:
    """(stock, flow, scale): one identity's exact stock / scale and flow / scale over T windows."""
    stock, flow, scale = 0, 0, 1
    for r_min, alpha, k in parts:
        (p, q), (a, b) = r_min.as_integer_ratio(), alpha.as_integer_ratio()
        d = b * q
        stock, flow = stock * d, flow * d + (b - a) * T * p * scale
        if k is None:
            stock += a * p * scale  # the alpha share is bought once
        else:
            renewals = -(-T // k)
            flow += a * renewals * p * scale
        scale *= d
    return stock, flow, scale


def _quotient(numerator: int, denominator: int) -> float:
    """numerator / denominator rounded once, or inf past the float range."""
    try:
        return numerator / denominator
    except OverflowError:
        return math.inf


def _report(s: int, T: int, parts: _Parts, coordination: CoordinationModel) -> CostReport:
    """The report for s identities holding every part for T windows, each figure rounded once."""
    if s == 0 or T == 0:
        return CostReport(s, T, 0.0, 0.0, 0.0, 0.0, 0.0, None)
    stock, flow, scale = _exact(T, parts)
    h = coordination.evaluate(s, T)
    total = s * (stock + flow) + h * scale
    marginal = stock + flow + (h - coordination.evaluate(s - 1, T)) * scale
    return CostReport(s, T, _quotient(total, scale), _quotient(s * stock, scale),
                      _quotient(s * flow, scale), float(h), _quotient(marginal, scale),
                      _quotient(total, scale * s * T))


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
    _check_rule(alpha, k)
    return _report(s, T, ((r_min, alpha, k),), coordination)


def acquisition_schedule(alpha: float, k: int, T: int, aggregate: float) -> tuple[float, ...]:
    """Cheapest acquisition events that keep `aggregate` deployed each window.

    The law's per-window form under the rule (alpha, k): the aggregate every k windows,
    and in between the (1 - alpha) share the previous window spent, rounded once.
    """
    # One window of the aggregate under (alpha, None): its flow is the spent share.
    spent = math.inf
    if math.isfinite(aggregate):
        _stock, flow, scale = _exact(1, ((aggregate, alpha, None),))
        spent = _quotient(flow, scale)
    return tuple([aggregate if window % k == 0 else spent for window in range(T)])
