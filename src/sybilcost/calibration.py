"""Order-of-magnitude calibrations on public proof-of-stake and proof-of-work numbers.

These scenarios price concentration targets in protocol-native units (staked
tokens, normalized hash-rate units).  They are deliberately coarse: the point
is the scaling contrast between a one-time stock acquisition and a per-window
renewal, not a market model.
"""

from __future__ import annotations

from dataclasses import dataclass

from .costs import cost_parallelizable, cost_throughput_bounded
from .law import ZERO_COORDINATION, CoordinationModel, CostReport, _check_count, _check_positive

__all__ = [
    "BTC_NETWORK_UNITS",
    "BTC_POOL_SHARES",
    "BTC_SMALL_POOL_UNITS",
    "BTC_T_RANGE",
    "CalibrationScenario",
    "CalibrationSeries",
    "ETH_LIDO_VALIDATORS",
    "ETH_R_MIN",
    "ETH_SMALL_OPERATOR_VALIDATORS",
    "ETH_STAKE_SUPPLY",
    "ETH_T_RANGE",
    "LAWS",
    "btc_tiers",
    "eth_scenario",
    "run_calibration",
]

# Ethereum proof of stake: 32 tokens activate one validator.  Tier sizes are
# round numbers near the largest staking pool and a small professional
# operator; the supply reference is the total token supply in circulation.
ETH_R_MIN = 32.0
ETH_LIDO_VALIDATORS = 300_000
ETH_SMALL_OPERATOR_VALIDATORS = 100
ETH_STAKE_SUPPLY = 1.2e8
ETH_T_RANGE: tuple[int, ...] = (1, 10, 100, 1000)

# Bitcoin proof of work: hash rate normalized to 10,000 units, one unit being
# the activation threshold.  The four large tiers are round mining-pool
# shares of that total; the small tier is a boutique pool.
BTC_NETWORK_UNITS = 10_000
BTC_POOL_SHARES: tuple[tuple[str, float], ...] = (
    ("pool1", 0.165),
    ("pool2", 0.155),
    ("pool3", 0.120),
    ("pool4", 0.115),
)
BTC_SMALL_POOL_UNITS = 50
BTC_T_RANGE: tuple[int, ...] = tuple(range(1, 501, 10))

LAWS = ("par", "bnd")


@dataclass(frozen=True)
class CalibrationScenario:
    """Named tiers of concentration targets priced over a horizon range.

    ``supply_reference``, when set, is the whole network in the units a cost
    is counted in (tokens, or hash-rate units), so a cost reads as a multiple of it.
    ``coordination`` is the overhead the parallelizable law prices by default.
    """

    name: str
    r_min: float
    s_tiers: tuple[tuple[str, int], ...]
    T_range: tuple[int, ...]
    supply_reference: float | None = None
    coordination: CoordinationModel = ZERO_COORDINATION

    def __post_init__(self) -> None:
        _check_positive("r_min", self.r_min)
        if self.supply_reference is not None:
            _check_positive("supply_reference", self.supply_reference)
        if not self.s_tiers:
            raise ValueError("scenario needs at least one tier")
        sizes = [size for _, size in self.s_tiers]
        for size in sizes:
            _check_count("s", size, 1)
        if sizes != sorted(sizes, reverse=True):
            raise ValueError("tiers must be ordered from largest to smallest")
        if not self.T_range:
            raise ValueError("scenario needs at least one horizon")
        for T in self.T_range:
            _check_count("T", T, 1)


@dataclass(frozen=True)
class CalibrationSeries:
    """Cost reports for one tier under one law, in T_range order."""

    tier: str
    s: int
    law: str
    reports: tuple[CostReport, ...]


def eth_scenario() -> CalibrationScenario:
    return CalibrationScenario(
        name="ethereum-pos",
        r_min=ETH_R_MIN,
        s_tiers=(
            ("lido", ETH_LIDO_VALIDATORS),
            ("small-operator", ETH_SMALL_OPERATOR_VALIDATORS),
        ),
        T_range=ETH_T_RANGE,
        supply_reference=ETH_STAKE_SUPPLY,
    )


def btc_tiers() -> CalibrationScenario:
    tiers = tuple(
        [(label, int(round(share * BTC_NETWORK_UNITS))) for label, share in BTC_POOL_SHARES]
        + [("small", BTC_SMALL_POOL_UNITS)]
    )
    return CalibrationScenario(
        name="bitcoin-pow",
        r_min=1.0,
        s_tiers=tiers,
        T_range=BTC_T_RANGE,
        supply_reference=float(BTC_NETWORK_UNITS),
        coordination=CoordinationModel.LINEAR_SUM,
    )


def run_calibration(
    scenario: CalibrationScenario,
    law: str = "both",
    coordination: CoordinationModel | None = None,
) -> tuple[CalibrationSeries, ...]:
    """Price every tier under the selected cost law(s) across the horizon range.

    The parallelizable law prices a tier as a one-time stake or hardware
    acquisition; the throughput-bounded law prices the counterfactual where
    the same influence must be re-bought every window.  Coordination, the
    scenario's own when None, applies to the parallelizable law only (the
    renewal law is already tight), so law 'bnd' refuses one.
    """
    if law not in ("par", "bnd", "both"):
        raise ValueError(f"law must be 'par', 'bnd', or 'both', got {law!r}")
    if coordination is not None and law == "bnd":
        raise ValueError("coordination applies only to law 'par' or 'both'")
    coordination = coordination or scenario.coordination
    selected = LAWS if law == "both" else (law,)
    series = []
    for tier, s in scenario.s_tiers:
        for one_law in selected:
            reports = tuple([
                cost_parallelizable(s, T, scenario.r_min, coordination) if one_law == "par"
                else cost_throughput_bounded(s, T, scenario.r_min)
                for T in scenario.T_range
            ])
            series.append(CalibrationSeries(tier=tier, s=s, law=one_law, reports=reports))
    return tuple(series)
