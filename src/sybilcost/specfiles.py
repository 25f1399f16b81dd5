"""Resource specs as JSON: one spec or a list of specs per file.

Its keys are `resources.ResourceSpec`'s fields, typed by their annotations.
`spec_from_dict` checks each field's JSON type before it builds the spec, whose
own checks then apply, and `load_specs` reads a file into specs.  Only a
command given a spec file, not a preset name, loads this module.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Mapping, get_args, get_type_hints

from . import law
from .resources import ResourceSpec

__all__ = ["load_specs", "spec_from_dict"]

# Each field's JSON type, and whether it may be null, from its annotation `X` or `X | None`.
_FIELD_TYPES = {
    name: ((get_args(hint) or (hint,))[0], type(None) in get_args(hint))
    for name, hint in get_type_hints(ResourceSpec).items()
}
_TYPE_NAMES = {str: "a string", bool: "true or false", float: "a finite number", int: "an integer"}


def _has_type(value: object, expected: type) -> bool:
    if expected is float:
        if type(value) is int:
            value = law._quotient(value, 1)  # the nearest float, or inf past the float range
        return type(value) is float and math.isfinite(value)
    if expected is int:
        return type(value) is int
    return isinstance(value, expected)


def spec_from_dict(data: Mapping[str, object]) -> ResourceSpec:
    """Build a spec from a dict with the same keys as the dataclass fields."""
    unknown = set(data) - set(_FIELD_TYPES)
    if unknown:
        raise ValueError(f"unknown resource fields: {sorted(unknown)}")
    kwargs = {}
    for key, value in data.items():
        expected, nullable = _FIELD_TYPES[key]
        if not (_has_type(value, expected) or (nullable and value is None)):
            kind = _TYPE_NAMES[expected]
            raise ValueError(f"resource field {key!r} must be {kind}, got {value!r}")
        # A JSON integer in a float field is that float, so `2` and `2.0` load one spec.
        kwargs[key] = float(value) if expected is float and value is not None else value
    try:
        return ResourceSpec(**kwargs)
    except TypeError as exc:
        raise ValueError(f"incomplete resource spec: {exc}") from exc


def load_specs(source: str | Path) -> tuple[ResourceSpec, ...]:
    """Load one spec or a list of specs from a JSON file."""
    text = Path(source).read_text()
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError(f"spec file {str(source)!r} is nested too deeply to parse") from None
    if isinstance(data, Mapping):
        data = [data]
    if not isinstance(data, list) or not all(isinstance(entry, Mapping) for entry in data):
        raise ValueError("spec file must hold an object or an array of objects")
    return tuple([spec_from_dict(entry) for entry in data])
