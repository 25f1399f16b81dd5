import itertools
import json
import math

import pytest

from sybilcost import costs, resources
from sybilcost.resources import (
    ResourceClass,
    ResourceSpec,
    classify,
    is_parallelizable,
    is_throughput_bounded,
    preset,
    taxonomy_presets,
)


def make_spec(**overrides):
    base = dict(
        name="probe",
        divisible=True,
        additive_influence=True,
        temporally_reusable=True,
        identity_transferable=True,
        r_min=1.0,
    )
    base.update(overrides)
    return ResourceSpec(**base)


def test_pos_stake_is_parallelizable():
    assert is_parallelizable(preset("pos-stake")) is True


def test_device_bound_is_not_parallelizable():
    assert is_parallelizable(preset("device-bound")) is False


def test_device_bound_is_throughput_bounded():
    assert is_throughput_bounded(preset("device-bound")) is True


def test_pow_hardware_not_throughput_bounded():
    assert is_throughput_bounded(preset("pow-hardware")) is False


def test_pow_energy_window_local_but_transferable():
    spec = preset("pow-energy")
    assert spec.temporally_reusable is False
    assert spec.identity_transferable is True
    assert is_throughput_bounded(spec) is False


def test_classify_pos_stake():
    assert classify(preset("pos-stake")).resource_class is ResourceClass.PARALLELIZABLE


def test_classify_human_participation():
    outcome = classify(preset("human-participation"))
    assert outcome.resource_class is ResourceClass.THROUGHPUT_BOUNDED


def test_classify_social_graph_is_other():
    assert classify(preset("social-graph")).resource_class is ResourceClass.OTHER


def test_classification_reasons_nonempty():
    for spec in taxonomy_presets():
        outcome = classify(spec)
        assert outcome.reasons
        assert all(isinstance(reason, str) for reason in outcome.reasons)


def test_taxonomy_has_seven_presets():
    names = [spec.name for spec in taxonomy_presets()]
    assert names == [
        "pow-hardware",
        "pow-energy",
        "pos-stake",
        "social-graph",
        "device-bound",
        "human-participation",
        "rate-limited",
    ]


def test_preset_unknown_name():
    with pytest.raises(ValueError):
        preset("quantum-foam")


def test_classes_are_mutually_exclusive_over_all_flag_combinations():
    # Exhaustive over the boolean property flags plus the throughput marker.
    for divisible, additive, reusable, transferable, bounded in itertools.product(
        (True, False), repeat=5
    ):
        if bounded and (reusable or transferable):
            continue  # rejected by the spec invariant, separately tested below
        spec = make_spec(
            divisible=divisible,
            additive_influence=additive,
            temporally_reusable=reusable,
            identity_transferable=transferable,
            throughput_bounded=bounded,
            tau=2.0 if bounded else None,
        )
        assert not (is_parallelizable(spec) and is_throughput_bounded(spec))


def test_throughput_bounded_requires_window_locality():
    with pytest.raises(ValueError):
        make_spec(throughput_bounded=True, tau=2.0, temporally_reusable=True)


@pytest.mark.parametrize("field", ["r_min", "tau"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_threshold_and_rate_limit_must_be_finite(field, value):
    bounded = dict(
        throughput_bounded=True, temporally_reusable=False, identity_transferable=False, tau=2.0
    )
    with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
        make_spec(**{**bounded, field: value})


def test_tau_only_with_throughput_bound():
    with pytest.raises(ValueError):
        make_spec(tau=3.0)


def test_r_min_cannot_exceed_tau():
    with pytest.raises(ValueError):
        make_spec(
            throughput_bounded=True,
            tau=0.5,
            r_min=1.0,
            temporally_reusable=False,
            identity_transferable=False,
        )


def test_alpha_and_transferable_flag_are_either_or():
    with pytest.raises(ValueError):
        make_spec(alpha=0.5)  # identity_transferable still set
    spec = make_spec(identity_transferable=None, alpha=0.5)
    assert spec.alpha == 0.5
    assert classify(spec).resource_class is ResourceClass.INTERMEDIATE


def test_k_and_reusable_flag_are_either_or():
    with pytest.raises(ValueError):
        make_spec(k=3)
    spec = make_spec(temporally_reusable=None, k=3)
    assert spec.k == 3
    assert classify(spec).resource_class is ResourceClass.INTERMEDIATE


def test_alpha_out_of_range():
    with pytest.raises(ValueError):
        make_spec(identity_transferable=None, alpha=1.5)


def test_k_must_be_positive():
    # k is a window count: a fractional k made the oracle and the closed form
    # disagree without an error.
    for k in (0, 1.5, 2.0, math.nan, math.inf, True):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            make_spec(temporally_reusable=None, k=k)
        with pytest.raises(ValueError, match="k must be a positive integer"):
            costs.cost_bounded_reuse(2, 3, 1.0, k)


def test_spec_round_trips_through_dict():
    spec = preset("rate-limited")
    again = resources.spec_from_dict(resources.spec_to_dict(spec))
    assert again == spec


def test_spec_from_dict_rejects_unknown_keys():
    data = resources.spec_to_dict(preset("pos-stake"))
    data["color"] = "red"
    with pytest.raises(ValueError):
        resources.spec_from_dict(data)


@pytest.mark.parametrize(
    "field, value",
    [("name", 3), ("divisible", 1), ("r_min", "1"), ("r_min", float("nan")), ("tau", True), ("k", 2.0)],
)
def test_spec_from_dict_names_a_wrongly_typed_field(field, value):
    data = resources.spec_to_dict(preset("pos-stake"))
    data[field] = value
    with pytest.raises(ValueError, match=f"resource field '{field}' must be"):
        resources.spec_from_dict(data)


def test_load_specs_rejects_non_object_entries(tmp_path):
    path = tmp_path / "specs.json"
    path.write_text(json.dumps([resources.spec_to_dict(preset("pos-stake")), 2]))
    with pytest.raises(ValueError, match="array of objects"):
        resources.load_specs(path)


def test_load_specs_single_object(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(resources.spec_to_dict(preset("pos-stake"))))
    loaded = resources.load_specs(path)
    assert loaded == (preset("pos-stake"),)


def test_load_specs_array(tmp_path):
    path = tmp_path / "specs.json"
    payload = [resources.spec_to_dict(preset("pos-stake")), resources.spec_to_dict(preset("device-bound"))]
    path.write_text(json.dumps(payload))
    loaded = resources.load_specs(path)
    assert [spec.name for spec in loaded] == ["pos-stake", "device-bound"]


def test_taxonomy_rows_carry_class_and_scaling():
    rows = resources.taxonomy_rows()
    by_name = {row["name"]: row for row in rows}
    assert by_name["pos-stake"]["resource_class"] == "Parallelizable"
    assert by_name["device-bound"]["resource_class"] == "ThroughputBounded"
    assert by_name["social-graph"]["resource_class"] == "Other"
    assert by_name["pos-stake"]["scaling"] == "o(sT)"
    assert by_name["rate-limited"]["scaling"] == "Omega(sT)"
