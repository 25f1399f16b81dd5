import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sybilcost.costs import (
    cost_bounded_reuse,
    cost_hybrid,
    cost_parallelizable,
    cost_partial_transferability,
    cost_throughput_bounded,
    crossover,
    crossover_table,
    governance_hybrid,
)
from sybilcost.law import (
    LINEAR_COORDINATION,
    ZERO_COORDINATION,
    CoordinationModel,
    CostReport,
    acquisition_schedule,
    cost_carry_over,
)

# Dyadic thresholds keep every product below exactly representable, so the
# closed forms can be compared with == rather than a tolerance.
DYADIC_R = st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0])
SMALL_S = st.integers(min_value=1, max_value=200)
SMALL_T = st.integers(min_value=1, max_value=200)


def test_parallelizable_example():
    report = cost_parallelizable(10, 100, 1.0, LINEAR_COORDINATION)
    assert report.total == 120.0
    assert report.stock == 10.0
    assert report.coordination == 110.0


def test_throughput_marginal_example():
    report = cost_throughput_bounded(5, 50, 1.0)
    assert report.marginal == 50.0
    assert report.total == 250.0


def test_degenerate_cases_cost_nothing():
    assert cost_parallelizable(0, 7, 1.0).total == 0.0
    assert cost_parallelizable(7, 0, 1.0).total == 0.0
    assert cost_throughput_bounded(0, 7, 1.0).total == 0.0


def test_zero_coordination_is_free():
    assert ZERO_COORDINATION.evaluate(100, 100) == 0.0


def test_linear_sum_vanishes_on_empty_attack():
    assert LINEAR_COORDINATION.evaluate(0, 50) == 0.0
    assert LINEAR_COORDINATION.evaluate(50, 0) == 0.0
    assert LINEAR_COORDINATION.evaluate(3, 4) == 7.0


def test_coordination_models_are_the_members_named_by_their_cli_values():
    assert [model.value for model in CoordinationModel] == ["zero", "linear"]
    assert CoordinationModel("zero") is ZERO_COORDINATION
    assert CoordinationModel("linear") is LINEAR_COORDINATION
    assert CoordinationModel("linear").evaluate(3, 4) == 7.0
    with pytest.raises(ValueError):
        CoordinationModel("quadratic")


def test_coordination_rejects_negative_args():
    with pytest.raises(ValueError):
        ZERO_COORDINATION.evaluate(-1, 4)


@given(SMALL_S, SMALL_T, DYADIC_R)
def test_parallelizable_total_is_horizon_free_without_coordination(s, T, r_min):
    assert cost_parallelizable(s, T, r_min).total == s * r_min


@given(SMALL_S, SMALL_T, DYADIC_R)
def test_throughput_total_is_bilinear(s, T, r_min):
    report = cost_throughput_bounded(s, T, r_min)
    assert report.total == (s * T) * r_min
    assert report.normalized == r_min


@given(SMALL_S, SMALL_T, DYADIC_R)
def test_decomposition_sums_to_total(s, T, r_min):
    for report in (
        cost_parallelizable(s, T, r_min, LINEAR_COORDINATION),
        cost_throughput_bounded(s, T, r_min),
        cost_bounded_reuse(s, T, r_min, 3),
    ):
        assert report.total == report.stock + report.flow + report.coordination


@given(st.integers(min_value=2, max_value=100), SMALL_T, DYADIC_R)
def test_parallelizable_marginal_is_flat(s, T, r_min):
    # LinearSum adds s + T, so each identity after the first costs r_min + 1.
    assert cost_parallelizable(s, T, r_min, LINEAR_COORDINATION).marginal == r_min + 1.0


@given(SMALL_T, DYADIC_R)
def test_first_identity_carries_the_whole_coordination_term(T, r_min):
    report = cost_parallelizable(1, T, r_min, LINEAR_COORDINATION)
    assert report.marginal == r_min + 1.0 + T == report.total


@given(st.integers(min_value=1, max_value=100), SMALL_T, DYADIC_R)
def test_throughput_marginal_grows_with_horizon(s, T, r_min):
    assert cost_throughput_bounded(s, T, r_min).marginal == r_min * T


# Every named law as a function of (s, T), at one threshold and coordination.
NAMED_LAWS = {
    "par": lambda s, T, r, h: cost_parallelizable(s, T, r, h),
    "bnd": lambda s, T, r, h: cost_throughput_bounded(s, T, r),
    "partial": lambda s, T, r, h: cost_carry_over(s, T, r, 0.5, None, h),
    "bounded-reuse": lambda s, T, r, h: cost_bounded_reuse(s, T, r, 3),
    "hybrid": lambda s, T, r, h: governance_hybrid(s, T, r, 2 * r, h),
}


@pytest.mark.parametrize("law", NAMED_LAWS.values(), ids=NAMED_LAWS.keys())
@pytest.mark.parametrize("coordination", list(CoordinationModel), ids=lambda model: model.value)
def test_marginal_is_the_difference_of_totals_on_every_law(law, coordination):
    # Dyadic thresholds keep both totals and their difference exact.
    for r_min in (0.25, 0.5, 1.0, 2.0):
        for s in range(1, 7):
            for T in range(1, 7):
                report = law(s, T, r_min, coordination)
                previous = law(s - 1, T, r_min, coordination).total
                assert report.marginal == report.total - previous, (r_min, s, T)


def exact_marginal(s, T, r_min, alpha, k, coordination):
    renewals = 1 if k is None else -(-T // k)
    a = Fraction(alpha)
    step = Fraction(coordination.evaluate(s, T)) - Fraction(coordination.evaluate(s - 1, T))
    return float(Fraction(r_min) * (a * renewals + (1 - a) * T) + step)


@pytest.mark.parametrize("coordination", list(CoordinationModel), ids=lambda model: model.value)
@pytest.mark.parametrize("k", [None, 1, 2, 3])
@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 0.7, 1.0])
def test_marginal_is_the_exact_difference_rounded_once(alpha, k, coordination):
    for r_min in (0.25, 1.0, 4.0, 0.1, 0.3, 0.7, 1.1):
        for s in range(1, 6):
            for T in range(1, 9):
                report = cost_carry_over(s, T, r_min, alpha, k, coordination)
                expected = exact_marginal(s, T, r_min, alpha, k, coordination)
                assert report.marginal == expected, (r_min, s, T)


# Thresholds for the exactness grids: non-dyadic ones, where a second float
# operation misses the exact value, next to dyadic ones, where it cannot.
EXACTNESS_THRESHOLDS = (0.1, 0.3, 0.7, 1.1, 0.25, 1.0, 2.0, 0.5, 32.0, 3.7)


@pytest.mark.parametrize("coordination", list(CoordinationModel), ids=lambda model: model.value)
@pytest.mark.parametrize("r_min", EXACTNESS_THRESHOLDS)
def test_normalized_is_the_exact_ratio_rounded_once(r_min, coordination):
    misses = []
    for alpha, k in itertools.product((0.0, 0.3, 0.5, 0.7, 1.0), (None, 1, 2, 3)):
        a = Fraction(alpha)
        for s in range(1, 8):
            for T in range(1, 12):
                renewals = 1 if k is None else -(-T // k)
                total = s * Fraction(r_min) * (a * renewals + (1 - a) * T)
                total += Fraction(coordination.evaluate(s, T))
                report = cost_carry_over(s, T, r_min, alpha, k, coordination)
                if report.normalized != float(total / (s * T)):
                    misses.append((alpha, k, s, T, report.normalized))
    assert misses == []


def test_normalized_example_off_the_dyadic_grid():
    # total / (s * T) rounds twice: 8.7 / 7 gives 1.2428571428571427.
    assert cost_carry_over(1, 7, 0.1, 0.0, None, LINEAR_COORDINATION).normalized == 1.2428571428571429


@pytest.mark.parametrize("coordination", list(CoordinationModel), ids=lambda model: model.value)
@pytest.mark.parametrize("k", [None, 1, 2, 3])
@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 0.7, 1.0])
def test_first_identity_marginal_is_the_total(alpha, k, coordination):
    # C(0, T) = 0, so Delta(1, T) is C(1, T) itself.
    for r_min in (0.25, 1.0, 0.1, 0.3, 0.7, 1.1):
        for T in range(1, 9):
            report = cost_carry_over(1, T, r_min, alpha, k, coordination)
            assert report.marginal == report.total, (r_min, T)


def test_partial_transfer_example():
    bound = cost_partial_transferability(4, 10, 1.0, 0.5)
    assert bound.lower_bound == 20.0
    assert bound.model_cost == 22.0


@given(SMALL_S, SMALL_T, DYADIC_R, st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
def test_partial_transfer_model_never_beats_bound(s, T, r_min, alpha):
    bound = cost_partial_transferability(s, T, r_min, alpha, LINEAR_COORDINATION)
    assert bound.model_cost >= bound.lower_bound


def test_partial_transfer_endpoints():
    # alpha=1 collapses to the stock law, alpha=0 to the renewal law.
    full = cost_partial_transferability(6, 9, 2.0, 1.0)
    assert full.model_cost == cost_parallelizable(6, 9, 2.0).total
    none = cost_partial_transferability(6, 9, 2.0, 0.0)
    assert none.model_cost == cost_throughput_bounded(6, 9, 2.0).total


def test_partial_transfer_alpha_validation():
    with pytest.raises(ValueError):
        cost_partial_transferability(2, 2, 1.0, -0.1)
    with pytest.raises(ValueError):
        cost_partial_transferability(2, 2, 1.0, 1.1)
    # The law checks alpha before it prices a degenerate target as free.
    for s, T in ((0, 5), (5, 0)):
        with pytest.raises(TypeError):
            cost_carry_over(s, T, 1.0, None, None)


def test_bounded_reuse_examples():
    assert cost_bounded_reuse(2, 10, 1.0, 5).total == 4.0
    assert cost_bounded_reuse(3, 7, 1.0, 1).total == 21.0
    assert cost_bounded_reuse(3, 7, 1.0, 7).total == 3.0


@given(SMALL_S, SMALL_T, DYADIC_R, st.integers(min_value=1, max_value=20))
def test_bounded_reuse_between_the_extremes(s, T, r_min, k):
    total = cost_bounded_reuse(s, T, r_min, k).total
    assert cost_parallelizable(s, T, r_min).total <= total
    assert total <= cost_throughput_bounded(s, T, r_min).total
    assert total >= (s * T) * r_min / k


@given(SMALL_S, SMALL_T, DYADIC_R)
def test_bounded_reuse_endpoints_match_extremal_laws(s, T, r_min):
    assert cost_bounded_reuse(s, T, r_min, 1).total == cost_throughput_bounded(s, T, r_min).total
    assert cost_bounded_reuse(s, T, r_min, T).total == cost_parallelizable(s, T, r_min).total


def test_hybrid_example():
    report = cost_hybrid(
        cost_parallelizable(3, 4, 1.0),
        cost_throughput_bounded(3, 4, 1.0),
    )
    assert report.total == 15.0
    assert report.stock == 3.0
    assert report.flow == 12.0


def test_hybrid_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        cost_hybrid(cost_parallelizable(3, 4, 1.0), cost_throughput_bounded(3, 5, 1.0))


def test_hybrid_with_zero_bounded_part_is_parallelizable():
    par = cost_parallelizable(5, 6, 1.0, LINEAR_COORDINATION)
    report = cost_hybrid(par, CostReport(5, 6, 0.0, 0.0, 0.0, 0.0, 0.0, None))
    assert report.total == par.total


def test_governance_preset_keeps_the_linear_floor():
    report = governance_hybrid(10, 100, stake_r_min=1.0, channel_r_min=1.0)
    assert report.total >= 1000 * 1.0


@given(SMALL_S, SMALL_T, DYADIC_R, DYADIC_R)
def test_hybrid_floor(s, T, stake_r, channel_r):
    report = governance_hybrid(s, T, stake_r, channel_r, LINEAR_COORDINATION)
    assert report.total >= (s * T) * channel_r


@pytest.mark.parametrize("coordination", list(CoordinationModel), ids=lambda model: model.value)
def test_hybrid_first_identity_marginal_is_the_total(coordination):
    # Both components give marginal == total at s = 1, so their sums must agree too.
    thresholds = (0.1, 0.3, 0.7, 1.1)
    for stake_r in thresholds:
        for channel_r in thresholds:
            for T in range(1, 9):
                report = governance_hybrid(1, T, stake_r, channel_r, coordination)
                assert report.marginal == report.total, (stake_r, channel_r, T)


@pytest.mark.parametrize("coordination", list(CoordinationModel), ids=lambda model: model.value)
def test_governance_hybrid_rounds_the_exact_sum_once(coordination):
    # At s = 1, adding the two components' rounded totals missed this in 63 of the 256 cases.
    thresholds = (0.1, 0.3, 0.7, 1.1)
    for s in (1, 2, 7):
        for stake_r in thresholds:
            for channel_r in thresholds:
                for T in range(1, 9):
                    case = (s, stake_r, channel_r, T)
                    report = governance_hybrid(s, T, stake_r, channel_r, coordination)
                    h = Fraction(coordination.evaluate(s, T))
                    step = h - Fraction(coordination.evaluate(s - 1, T))
                    stock, flow = s * Fraction(stake_r), s * T * Fraction(channel_r)
                    assert report.stock == float(stock), case
                    assert report.flow == float(flow), case
                    assert report.total == float(stock + flow + h), case
                    marginal = Fraction(stake_r) + T * Fraction(channel_r) + step
                    assert report.marginal == float(marginal), case
                    assert report.normalized == float((stock + flow + h) / (s * T)), case


def test_linear_coordination_past_two_to_the_53_is_summed_exactly():
    # h(s, T) = s + T is an exact integer, so the total and the marginal are
    # each rounded once, after the sum: a float h read 3.0 and 4.0 as marginals.
    s = 2**53 + 2
    assert LINEAR_COORDINATION.evaluate(s, 1) == s + 1
    report = cost_carry_over(s, 1, 1.0, 1.0, None, LINEAR_COORDINATION)
    assert report.total == float(2 * s + 1)
    assert report.marginal == 2.0
    hybrid = governance_hybrid(s, 1, 1.0, 1.0, LINEAR_COORDINATION)
    assert hybrid.total == float(3 * s + 1)
    assert hybrid.marginal == 3.0
    assert report.coordination == hybrid.coordination == float(s + 1)


@given(st.integers(min_value=2, max_value=300), DYADIC_R)
def test_crossover_matches_law_intersection(T, r_min):
    threshold = crossover(T, r_min)
    if threshold is None:
        assert T * r_min <= r_min + 1.0
        return

    def par(s):
        return cost_parallelizable(s, T, r_min, LINEAR_COORDINATION).total

    def bnd(s):
        return cost_throughput_bounded(s, T, r_min).total

    below = math.floor(threshold)
    if below >= 1 and below < threshold:
        assert bnd(below) < par(below)
    above = math.ceil(threshold) + 1
    assert bnd(above) > par(above)


@pytest.mark.parametrize("r_min", [*EXACTNESS_THRESHOLDS, 0.05, 1.5])
def test_crossover_is_the_exact_intersection_rounded_once(r_min):
    misses = []
    for T in range(1, 201):
        denominator = (T - 1) * Fraction(r_min) - 1
        expected = float(T / denominator) if denominator > 0 else None
        if crossover(T, r_min) != expected:
            misses.append((T, crossover(T, r_min), expected))
    assert misses == []


def test_crossover_undefined_for_short_horizons():
    assert crossover(2, 0.5) is None


@pytest.mark.parametrize("T", [0, 10.5, math.nan, math.inf, True])
def test_crossover_horizon_must_be_a_window_count(T):
    with pytest.raises(ValueError, match="T must be an integer at least 1"):
        crossover(T, 1.0)


def test_crossover_example_value():
    assert crossover(10, 1.0) == pytest.approx(1.25)
    # The float algebra T / (T * r_min - r_min - 1) gives 7.500000000000006.
    assert crossover(3, 0.7) == 7.500000000000002


def test_crossover_table_covers_default_grid():
    table = crossover_table()
    assert len(table) == 15
    assert table[0] == (10, 0.5, pytest.approx(2.857142857142857))
    horizons = sorted({row[0] for row in table})
    assert horizons == [10, 25, 50, 100, 200]


@given(SMALL_S, SMALL_T, DYADIC_R)
def test_normalized_ratio_identities(s, T, r_min):
    par = cost_parallelizable(s, T, r_min, LINEAR_COORDINATION)
    assert par.normalized == par.total / (s * T)
    bnd = cost_throughput_bounded(s, T, r_min)
    assert bnd.normalized == r_min


@given(st.integers(min_value=2, max_value=1000), DYADIC_R)
def test_normalized_parallelizable_decreases_in_s(s, r_min):
    T = 100
    lower = cost_parallelizable(s - 1, T, r_min, LINEAR_COORDINATION).normalized
    higher = cost_parallelizable(s, T, r_min, LINEAR_COORDINATION).normalized
    assert higher < lower


def test_negative_arguments_rejected():
    with pytest.raises(ValueError):
        cost_parallelizable(-1, 5, 1.0)
    with pytest.raises(ValueError):
        cost_throughput_bounded(5, -1, 1.0)
    with pytest.raises(ValueError):
        cost_parallelizable(5, 5, 0.0)
    with pytest.raises(ValueError):
        cost_bounded_reuse(5, 5, 1.0, 0)


@pytest.mark.parametrize(
    "law",
    [
        lambda s, T: cost_parallelizable(s, T, 1.0),
        lambda s, T: cost_throughput_bounded(s, T, 1.0),
        lambda s, T: cost_partial_transferability(s, T, 1.0, 0.5),
        lambda s, T: cost_bounded_reuse(s, T, 1.0, 2),
        lambda s, T: governance_hybrid(s, T),
        lambda s, T: cost_carry_over(s, T, 1.0, 0.5, 2),
        ZERO_COORDINATION.evaluate,
        LINEAR_COORDINATION.evaluate,
    ],
    ids=["par", "bnd", "partial", "bounded-reuse", "hybrid", "carry-over", "zero-coordination",
         "linear-coordination"],
)
@pytest.mark.parametrize("field", ["s", "T"])
@pytest.mark.parametrize("value", [2.5, 3.0, True])
def test_counts_must_be_integers(law, field, value):
    args = {**dict(s=2, T=3), field: value}
    with pytest.raises(ValueError, match=f"{field} must be a nonnegative integer"):
        law(**args)


@pytest.mark.parametrize("r_min", [math.nan, math.inf, -math.inf])
def test_non_finite_threshold_rejected(r_min):
    laws = [
        lambda: cost_parallelizable(3, 3, r_min),
        lambda: cost_throughput_bounded(3, 3, r_min),
        lambda: cost_partial_transferability(3, 3, r_min, 0.5),
        lambda: cost_bounded_reuse(3, 3, r_min, 2),
        lambda: crossover(10, r_min),
    ]
    for law in laws:
        with pytest.raises(ValueError, match="r_min must be finite and positive"):
            law()


@pytest.mark.parametrize("k", [None, 1, 2, 3])
@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 1.0])
def test_carry_over_law_sums_its_acquisition_schedule(alpha, k):
    # The closed form against the window-by-window purchases it stands for;
    # k = None keeps the alpha share for the whole horizon.
    for r_min in (0.25, 0.5, 1.0, 2.0):
        for s in range(7):
            for T in range(7):
                report = cost_carry_over(s, T, r_min, alpha, k)
                schedule = acquisition_schedule(alpha, k or T, T, s * r_min)
                assert report.total == sum(schedule), (r_min, s, T)


@pytest.mark.parametrize("k", [None, 1, 2, 3])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_carry_over_law_splits_stock_from_flow(alpha, k):
    report = cost_carry_over(4, 5, 1.0, alpha, k, LINEAR_COORDINATION)
    assert report.total == report.stock + report.flow + report.coordination
    assert report.coordination == 9.0
    # Only a share bought once for the whole horizon is stock.
    assert report.stock == (4.0 * alpha if k is None else 0.0)


def test_acquisition_schedule_entries_are_exact_rounded_once():
    # A full purchase is the aggregate itself, and the spent share is rounded
    # once: (1 - 0.1) * 0.3 + 0.1 * 0.3 is 0.30000000000000004, not 0.3.
    misses = []
    for alpha in (tenth / 10 for tenth in range(11)):
        for aggregate in (0.1, 0.3, 0.7, 1.1, 0.25, 1.0, 2.0, 3.7):
            spent = float((1 - Fraction(alpha)) * Fraction(aggregate))
            if acquisition_schedule(alpha, 2, 3, aggregate) != (aggregate, spent, aggregate):
                misses.append((alpha, aggregate))
    assert misses == []


def test_acquisition_schedule_of_a_non_finite_aggregate_is_infinite():
    assert acquisition_schedule(0.5, 2, 3, math.inf) == (math.inf,) * 3
    assert acquisition_schedule(1.0, 3, 3, math.inf) == (math.inf,) * 3


@pytest.mark.parametrize("s, T", [(1, 3), (3, 1)])
def test_renewal_every_window_normalizes_to_r_min_exactly(s, T):
    # (s * T) * 0.1 / (s * T) is 0.10000000000000002, not 0.1.
    assert cost_throughput_bounded(s, T, 0.1).normalized == 0.1
    assert cost_bounded_reuse(s, T, 0.1, 1).normalized == 0.1


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_partial_transfer_shares_are_exact_rounded_once(alpha):
    # Each share is exact and rounded once: (1 - 0.3) * 0.1 is 0.07, not 0.06999999999999999.
    kept = Fraction(alpha)
    for r_min in (0.1, 0.3, 0.7, 1.1, 0.25, 1.0):
        for s in range(1, 6):
            for T in range(1, 9):
                report = cost_carry_over(s, T, r_min, alpha, None)
                assert report.stock == float(kept * s * Fraction(r_min)), (r_min, s, T)
                assert report.flow == float((1 - kept) * s * T * Fraction(r_min)), (r_min, s, T)
                bound = cost_partial_transferability(s, T, r_min, alpha)
                assert bound.lower_bound == report.flow


def test_a_share_overflows_only_when_its_exact_value_does():
    assert cost_partial_transferability(2, 2, 1e308, 0.5) == (math.inf, math.inf)
    assert cost_carry_over(2, 2, 1e308, 0.5, None).stock == 1e308


def test_zero_weight_share_of_an_overflowing_product_costs_nothing():
    # At alpha = 1 the renewed share is empty, so its inf product must not turn into nan.
    assert cost_partial_transferability(1, 2, 1e308, 1.0) == (0.0, 1e308)
