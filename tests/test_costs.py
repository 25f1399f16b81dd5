import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sybilcost import costs
from sybilcost.costs import (
    LINEAR_COORDINATION,
    ZERO_COORDINATION,
    cost_bounded_reuse,
    cost_hybrid,
    cost_parallelizable,
    cost_partial_transferability,
    cost_throughput_bounded,
    crossover,
    crossover_table,
    governance_hybrid,
    marginal_cost,
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
    law = costs.parallelizable_law(r_min, LINEAR_COORDINATION)
    # LinearSum adds s + T, so each identity after the first costs r_min + 1.
    assert marginal_cost(law, s, T) == r_min + 1.0


@given(SMALL_T, DYADIC_R)
def test_first_identity_carries_the_whole_coordination_term(T, r_min):
    law = costs.parallelizable_law(r_min, LINEAR_COORDINATION)
    assert marginal_cost(law, 1, T) == r_min + 1.0 + T


@given(st.integers(min_value=1, max_value=100), SMALL_T, DYADIC_R)
def test_throughput_marginal_grows_with_horizon(s, T, r_min):
    law = costs.throughput_law(r_min)
    assert marginal_cost(law, s, T) == r_min * T


def test_marginal_cost_requires_positive_s():
    with pytest.raises(ValueError):
        marginal_cost(costs.throughput_law(1.0), 0, 5)


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
    report = cost_hybrid(par, costs.zero_report(5, 6))
    assert report.total == par.total


def test_governance_preset_keeps_the_linear_floor():
    report = governance_hybrid(10, 100, stake_r_min=1.0, channel_r_min=1.0)
    assert report.total >= 1000 * 1.0


@given(SMALL_S, SMALL_T, DYADIC_R, DYADIC_R)
def test_hybrid_floor(s, T, stake_r, channel_r):
    report = governance_hybrid(s, T, stake_r, channel_r, LINEAR_COORDINATION)
    assert report.total >= (s * T) * channel_r


@given(st.integers(min_value=2, max_value=300), DYADIC_R)
def test_crossover_matches_law_intersection(T, r_min):
    threshold = crossover(T, r_min)
    if threshold is None:
        assert T * r_min <= r_min + 1.0
        return
    par = costs.parallelizable_law(r_min, LINEAR_COORDINATION)
    bnd = costs.throughput_law(r_min)
    below = math.floor(threshold)
    if below >= 1 and below < threshold:
        assert bnd(below, T) < par(below, T)
    above = math.ceil(threshold) + 1
    assert bnd(above, T) > par(above, T)


def test_crossover_undefined_for_short_horizons():
    assert crossover(2, 0.5) is None


def test_crossover_example_value():
    assert crossover(10, 1.0) == pytest.approx(1.25)


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
