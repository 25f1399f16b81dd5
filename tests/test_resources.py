import itertools
import json
import math
from dataclasses import asdict

import pytest

from sybilcost import costs, resources, specfiles
from sybilcost.resources import (
    TAXONOMY,
    ResourceClass,
    ResourceSpec,
    classify,
    is_parallelizable,
    preset,
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
    assert preset("device-bound").throughput_bounded is True


def test_pow_hardware_not_throughput_bounded():
    assert preset("pow-hardware").throughput_bounded is False


def test_pow_energy_window_local_but_transferable():
    spec = preset("pow-energy")
    assert spec.temporally_reusable is False
    assert spec.identity_transferable is True
    assert spec.throughput_bounded is False


def test_classify_pos_stake():
    assert classify(preset("pos-stake")).resource_class is ResourceClass.PARALLELIZABLE


def test_classify_human_participation():
    outcome = classify(preset("human-participation"))
    assert outcome.resource_class is ResourceClass.THROUGHPUT_BOUNDED


def test_classify_social_graph_is_other():
    assert classify(preset("social-graph")).resource_class is ResourceClass.OTHER


def test_classification_reasons_nonempty():
    for spec in TAXONOMY:
        outcome = classify(spec)
        assert outcome.reasons
        assert all(isinstance(reason, str) for reason in outcome.reasons)


def test_taxonomy_has_seven_presets():
    names = [spec.name for spec in TAXONOMY]
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
    known = "device-bound, human-participation, pos-stake, pow-energy, pow-hardware, " \
        "rate-limited, social-graph"
    with pytest.raises(ValueError) as refused:
        preset("quantum-foam")
    assert str(refused.value) == f"unknown preset 'quantum-foam'; known presets: {known}"


def test_resolve_reads_a_preset_name_before_a_file_of_that_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pos-stake").write_text(json.dumps(asdict(preset("device-bound"))))
    assert resources.resolve("pos-stake") is preset("pos-stake")
    (tmp_path / "spec.json").write_text(json.dumps(asdict(preset("device-bound"))))
    assert resources.resolve("spec.json") == preset("device-bound")


def test_resolve_refuses_an_unknown_token_and_a_file_of_many_specs(tmp_path):
    with pytest.raises(ValueError) as refused:
        resources.resolve("quantum-foam")
    assert str(refused.value) == "'quantum-foam' is neither a built-in preset nor a spec file"
    path = tmp_path / "specs.json"
    path.write_text(json.dumps([asdict(spec) for spec in resources.TAXONOMY]))
    with pytest.raises(ValueError) as refused:
        resources.resolve(str(path))
    assert str(refused.value) == f"spec file {str(path)!r} must contain exactly one spec, found 7"


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
        assert not (is_parallelizable(spec) and spec.throughput_bounded)


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
    again = specfiles.spec_from_dict(asdict(spec))
    assert again == spec


@pytest.mark.parametrize("spec", TAXONOMY, ids=lambda spec: spec.name)
def test_every_preset_round_trips_through_a_spec_file(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(asdict(spec)))
    assert specfiles.load_specs(path) == (spec,)


def test_spec_from_dict_reads_an_integer_in_a_float_field_as_that_float():
    data = {"name": "stake-file", "divisible": True, "additive_influence": True,
            "temporally_reusable": True, "identity_transferable": True, "r_min": 2}
    spec = specfiles.spec_from_dict(data)
    assert spec == specfiles.spec_from_dict({**data, "r_min": 2.0})
    assert type(spec.r_min) is float


def test_spec_from_dict_rejects_unknown_keys():
    data = asdict(preset("pos-stake"))
    data["color"] = "red"
    with pytest.raises(ValueError):
        specfiles.spec_from_dict(data)


@pytest.mark.parametrize(
    "field, value",
    [("name", 3), ("divisible", 1), ("r_min", "1"), ("r_min", float("nan")), ("tau", True), ("k", 2.0)],
)
def test_spec_from_dict_names_a_wrongly_typed_field(field, value):
    data = asdict(preset("pos-stake"))
    data[field] = value
    with pytest.raises(ValueError, match=f"resource field '{field}' must be"):
        specfiles.spec_from_dict(data)


def test_load_specs_rejects_non_object_entries(tmp_path):
    path = tmp_path / "specs.json"
    path.write_text(json.dumps([asdict(preset("pos-stake")), 2]))
    with pytest.raises(ValueError, match="array of objects"):
        specfiles.load_specs(path)


def test_load_specs_single_object(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(asdict(preset("pos-stake"))))
    loaded = specfiles.load_specs(path)
    assert loaded == (preset("pos-stake"),)


def test_load_specs_array(tmp_path):
    path = tmp_path / "specs.json"
    payload = [asdict(preset("pos-stake")), asdict(preset("device-bound"))]
    path.write_text(json.dumps(payload))
    loaded = specfiles.load_specs(path)
    assert [spec.name for spec in loaded] == ["pos-stake", "device-bound"]


def test_taxonomy_rows_carry_class_and_scaling():
    rows = resources.taxonomy_rows()
    by_name = {row["name"]: row for row in rows}
    assert by_name["pos-stake"]["resource_class"] == "Parallelizable"
    assert by_name["device-bound"]["resource_class"] == "ThroughputBounded"
    assert by_name["social-graph"]["resource_class"] == "Other"
    assert by_name["pos-stake"]["scaling"] == "o(sT)"
    assert by_name["rate-limited"]["scaling"] == "Omega(sT)"
