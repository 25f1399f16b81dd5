"""Resource specs as JSON: one spec or a list of specs per file.

`spec_from_dict` checks each field's JSON type before it builds the
`resources.ResourceSpec`, whose own checks then apply, and `load_specs` reads
a file into specs.  Only a command given a spec file, not a preset name,
loads this module.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Mapping

from .resources import ResourceSpec

__all__ = ["load_specs", "spec_from_dict"]

# Each field's JSON type, and whether it may be null.
_FIELD_TYPES: dict[str, tuple[type, bool]] = {
    "name": (str, False),
    "divisible": (bool, False),
    "additive_influence": (bool, False),
    "temporally_reusable": (bool, True),
    "identity_transferable": (bool, True),
    "throughput_bounded": (bool, False),
    "r_min": (float, False),
    "tau": (float, True),
    "alpha": (float, True),
    "k": (int, True),
}
_TYPE_NAMES = {str: "a string", bool: "true or false", float: "a finite number", int: "an integer"}


def _has_type(value: object, expected: type) -> bool:
    if expected is float:
        return type(value) is int or (type(value) is float and math.isfinite(value))
    if expected is int:
        return type(value) is int
    return isinstance(value, expected)


def spec_from_dict(data: Mapping[str, object]) -> ResourceSpec:
    """Build a spec from a dict with the same keys as the dataclass fields."""
    unknown = set(data) - set(_FIELD_TYPES)
    if unknown:
        raise ValueError(f"unknown resource fields: {sorted(unknown)}")
    for key, value in data.items():
        expected, nullable = _FIELD_TYPES[key]
        if not (_has_type(value, expected) or (nullable and value is None)):
            kind = _TYPE_NAMES[expected]
            raise ValueError(f"resource field {key!r} must be {kind}, got {value!r}")
    kwargs = {key: data[key] for key in _FIELD_TYPES if key in data}
    kwargs.setdefault("temporally_reusable", None)
    kwargs.setdefault("identity_transferable", None)
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
