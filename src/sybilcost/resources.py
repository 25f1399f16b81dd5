"""Structural model of security-weighting resources.

A resource is described by the structural properties that govern how an
allocation of it can be divided, reused across decision windows, and moved
between identities.  Those properties, rather than the protocol rules layered
on top, determine how cheaply influence backed by the resource can be
concentrated.  This module provides the property flags, the classification
into the two extremal scaling classes plus the intermediate and unclassified
buckets, a built-in taxonomy of concrete resource types, and JSON import and
export of specs.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping

__all__ = [
    "ResourceClass",
    "ResourceClassification",
    "ResourceSpec",
    "TAXONOMY",
    "classify",
    "is_parallelizable",
    "is_throughput_bounded",
    "load_specs",
    "preset",
    "scaling_label",
    "spec_from_dict",
    "spec_to_dict",
    "taxonomy_presets",
    "taxonomy_rows",
]


class ResourceClass(Enum):
    """Scaling class a resource falls into."""

    PARALLELIZABLE = "Parallelizable"
    THROUGHPUT_BOUNDED = "ThroughputBounded"
    INTERMEDIATE = "Intermediate"
    OTHER = "Other"


@dataclass(frozen=True)
class ResourceSpec:
    """Structural description of a security-weighting resource.

    ``temporally_reusable`` is ``None`` exactly when ``k`` bounds reuse to a
    finite number of consecutive windows, and ``identity_transferable`` is
    ``None`` exactly when ``alpha`` limits transfer to a fraction of the
    allocation.  A spec carries the boolean or its override, never both.
    ``tau`` (the per-channel rate limit) is present exactly when the resource
    is flagged throughput-bounded, and a throughput-bounded resource is
    necessarily window-local and non-transferable.
    """

    name: str
    divisible: bool
    additive_influence: bool
    temporally_reusable: bool | None
    identity_transferable: bool | None
    throughput_bounded: bool = False
    r_min: float = 1.0
    tau: float | None = None
    alpha: float | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r_min) and self.r_min > 0):
            raise ValueError(f"r_min must be finite and positive, got {self.r_min}")
        if (self.tau is not None) != self.throughput_bounded:
            raise ValueError("tau must be present exactly when throughput_bounded is set")
        if self.tau is not None:
            if not (math.isfinite(self.tau) and self.tau > 0):
                raise ValueError(f"tau must be finite and positive, got {self.tau}")
            if self.r_min > self.tau:
                raise ValueError(
                    f"activation threshold r_min={self.r_min} exceeds rate limit tau={self.tau}"
                )
        if (self.alpha is None) == (self.identity_transferable is None):
            raise ValueError("set exactly one of identity_transferable or alpha")
        if self.alpha is not None and not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if (self.k is None) == (self.temporally_reusable is None):
            raise ValueError("set exactly one of temporally_reusable or k")
        if self.k is not None and (type(self.k) is not int or self.k < 1):
            raise ValueError(f"k must be a positive integer window count, got {self.k!r}")
        if self.throughput_bounded and (
            self.temporally_reusable is not False or self.identity_transferable is not False
        ):
            raise ValueError("throughput-bounded resources are window-local and non-transferable")


@dataclass(frozen=True)
class ResourceClassification:
    """Outcome of classifying a spec, with property-level reasons."""

    resource_class: ResourceClass
    reasons: tuple[str, ...]


def is_parallelizable(spec: ResourceSpec) -> bool:
    """True when all four concentration-enabling properties hold outright."""
    return (
        spec.divisible
        and spec.additive_influence
        and spec.temporally_reusable is True
        and spec.identity_transferable is True
    )


def is_throughput_bounded(spec: ResourceSpec) -> bool:
    """True when the resource is rate-limited per channel (window-local, non-transferable)."""
    return spec.throughput_bounded and spec.tau is not None


def classify(spec: ResourceSpec) -> ResourceClassification:
    """Assign a spec to its scaling class with property-level reasons."""
    if is_parallelizable(spec):
        return ResourceClassification(
            ResourceClass.PARALLELIZABLE,
            (
                "divisible",
                "additive influence",
                "temporally reusable",
                "identity transferable",
            ),
        )
    if is_throughput_bounded(spec):
        return ResourceClassification(
            ResourceClass.THROUGHPUT_BOUNDED,
            (
                f"per-channel rate limit tau={spec.tau}",
                "window-local (no carry-over between windows)",
                "non-transferable between identities",
            ),
        )
    if spec.alpha is not None or spec.k is not None:
        reasons = []
        if spec.alpha is not None:
            reasons.append(f"partial transferability alpha={spec.alpha}")
        if spec.k is not None:
            reasons.append(f"bounded temporal reuse k={spec.k}")
        return ResourceClassification(ResourceClass.INTERMEDIATE, tuple(reasons))
    reasons = []
    if not spec.divisible:
        reasons.append("not divisible")
    if not spec.additive_influence:
        reasons.append("influence not additive across identities")
    if spec.temporally_reusable is False:
        reasons.append("not temporally reusable")
    if spec.identity_transferable is False:
        reasons.append("not transferable between identities")
    reasons.append("no per-channel rate limit")
    return ResourceClassification(ResourceClass.OTHER, tuple(reasons))


def _bounded_preset(name: str) -> ResourceSpec:
    return ResourceSpec(
        name=name,
        divisible=False,
        additive_influence=False,
        temporally_reusable=False,
        identity_transferable=False,
        throughput_bounded=True,
        r_min=1.0,
        tau=1.0,
    )


# Built-in taxonomy of resource types commonly used for security weighting.
# Presets use a normalized activation threshold (and rate limit) of 1.0.
TAXONOMY: tuple[ResourceSpec, ...] = (
    # Mining hardware: capital stock, arbitrarily divisible, resellable.
    ResourceSpec(
        name="pow-hardware",
        divisible=True,
        additive_influence=True,
        temporally_reusable=True,
        identity_transferable=True,
    ),
    # Energy spent on mining: divisible and additive but consumed per window.
    ResourceSpec(
        name="pow-energy",
        divisible=True,
        additive_influence=True,
        temporally_reusable=False,
        identity_transferable=True,
    ),
    # Bonded stake: divisible capital, reusable every window, delegable.
    ResourceSpec(
        name="pos-stake",
        divisible=True,
        additive_influence=True,
        temporally_reusable=True,
        identity_transferable=True,
    ),
    # Standing in a social graph: neither divisible nor additive, and edges
    # do not move between identities in any clean sense.
    ResourceSpec(
        name="social-graph",
        divisible=False,
        additive_influence=False,
        temporally_reusable=False,
        identity_transferable=False,
    ),
    # One physical device per identity, rate-limited per window.
    _bounded_preset("device-bound"),
    # One human's attention per window.
    _bounded_preset("human-participation"),
    # Protocol-level per-channel rate limiting.
    _bounded_preset("rate-limited"),
)

_PRESETS: dict[str, ResourceSpec] = {spec.name: spec for spec in TAXONOMY}


def preset(name: str) -> ResourceSpec:
    """Look up a built-in taxonomy preset by name."""
    try:
        return _PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(_PRESETS))
        raise ValueError(f"unknown preset {name!r}; known presets: {known}") from None


def taxonomy_presets() -> list[ResourceSpec]:
    """All built-in presets, in taxonomy order."""
    return list(TAXONOMY)


def scaling_label(spec: ResourceSpec) -> str:
    """Asymptotic adversary-cost scaling implied by the spec's class."""
    cls = classify(spec).resource_class
    if cls is ResourceClass.PARALLELIZABLE:
        return "o(sT)"
    if cls is ResourceClass.THROUGHPUT_BOUNDED:
        return "Omega(sT)"
    if cls is ResourceClass.INTERMEDIATE:
        if spec.alpha is not None:
            return f"Omega((1-alpha)*sT), alpha={spec.alpha}"
        return f"Omega(sT/k), k={spec.k}"
    if spec.temporally_reusable is False and spec.divisible and spec.additive_influence:
        # Flow resources renew every window even though stock never accrues.
        return "linear in T"
    return "no closed form"


def taxonomy_rows() -> tuple[dict[str, object], ...]:
    """Taxonomy presets as flat export rows (spec fields plus class and scaling)."""
    rows = []
    for spec in TAXONOMY:
        row: dict[str, object] = spec_to_dict(spec)
        row["resource_class"] = classify(spec).resource_class.value
        row["scaling"] = scaling_label(spec)
        rows.append(row)
    return tuple(rows)


# ---------------------------------------------------------------------------
# JSON import/export
# ---------------------------------------------------------------------------

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


def spec_to_dict(spec: ResourceSpec) -> dict[str, object]:
    """Spec as a JSON-ready dict whose keys mirror the field names."""
    return asdict(spec)


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
    data = json.loads(Path(source).read_text())
    if isinstance(data, Mapping):
        data = [data]
    if not isinstance(data, list) or not all(isinstance(entry, Mapping) for entry in data):
        raise ValueError("spec file must hold an object or an array of objects")
    return tuple(spec_from_dict(entry) for entry in data)
