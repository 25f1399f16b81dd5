"""Structural model of security-weighting resources.

A resource is described by the structural properties that govern how an
allocation of it can be divided, reused across decision windows, and moved
between identities.  Those properties, rather than the protocol rules layered
on top, determine how cheaply influence backed by the resource can be
concentrated.  This module provides the property flags, the classification
into the two extremal scaling classes plus the intermediate and unclassified
buckets, the carry-over rule between windows that the flags imply (`law`
prices it), a built-in taxonomy of concrete resource types, and `resolve`, the
spec a `--spec` token names; it loads `specfiles` only for a spec file.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum
from pathlib import Path

from .law import _check_positive, _check_rule

__all__ = [
    "ResourceClass",
    "ResourceClassification",
    "ResourceSpec",
    "TAXONOMY",
    "carry_over",
    "classify",
    "is_parallelizable",
    "preset",
    "resolve",
    "scaling_label",
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
    allocation.  A spec carries the boolean or its override, never both, and
    both booleans default to ``None``, so a spec with an override names only it.
    ``tau`` (the per-channel rate limit) is present exactly when the resource
    is flagged throughput-bounded, and a throughput-bounded resource is
    necessarily window-local and non-transferable.
    """

    name: str
    divisible: bool
    additive_influence: bool
    temporally_reusable: bool | None = None
    identity_transferable: bool | None = None
    throughput_bounded: bool = False
    r_min: float = 1.0
    tau: float | None = None
    alpha: float | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        _check_positive("r_min", self.r_min)
        if (self.tau is not None) != self.throughput_bounded:
            raise ValueError("tau must be present exactly when throughput_bounded is set")
        if self.tau is not None:
            _check_positive("tau", self.tau)
            if self.r_min > self.tau:
                raise ValueError(
                    f"activation threshold r_min={self.r_min} exceeds rate limit tau={self.tau}"
                )
        if (self.alpha is None) == (self.identity_transferable is None):
            raise ValueError("set exactly one of identity_transferable or alpha")
        if (self.k is None) == (self.temporally_reusable is None):
            raise ValueError("set exactly one of temporally_reusable or k")
        _check_rule(0.0 if self.alpha is None else self.alpha, self.k)
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


def classify(spec: ResourceSpec) -> ResourceClassification:
    """Assign a spec to its scaling class with property-level reasons.

    Parallelizable when all four properties hold, else throughput-bounded by the
    spec's own flag, else intermediate with an alpha or k override, else other.
    """
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
    if spec.throughput_bounded:
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


def carry_over(spec: ResourceSpec, T: int) -> tuple[float, int]:
    """The spec's carry-over rule as an (alpha, k) pair, read from its property flags.

    An acquisition's alpha share stays usable for k windows, counting the one
    it is bought in; the remaining (1 - alpha) share of every deployment is
    spent for good.  alpha is the spec's own alpha, else 1 for a transferable
    resource and 0 for a non-transferable one; k is the spec's own k, else T
    for a reusable resource and 1 for a window-local one.  So parallelizable
    stock is (1, T), throughput-bounded flow (0, 1) and spent energy (1, 1);
    non-transferable reusable stock is (0, T), since no share of it survives
    redeployment.  A spec that is neither throughput-bounded nor divisible and
    additive has no rule, and neither has one that sets both alpha and k.
    """
    if not (spec.throughput_bounded or (spec.divisible and spec.additive_influence)):
        raise ValueError(
            f"no carry-over rule for {spec.name!r}: "
            "it is neither throughput-bounded nor divisible and additive"
        )
    if spec.alpha is not None and spec.k is not None:
        raise ValueError(f"no carry-over rule for {spec.name!r}: it sets both alpha and k")
    alpha = float(spec.identity_transferable) if spec.alpha is None else spec.alpha
    k = (T if spec.temporally_reusable else 1) if spec.k is None else spec.k
    return alpha, k


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


def resolve(token: str) -> ResourceSpec:
    """The spec a `--spec` token names: a built-in preset, else the one spec of that JSON file."""
    if token in _PRESETS:
        return _PRESETS[token]
    if not Path(token).is_file():  # "" reads as ".", a directory
        raise ValueError(f"{token!r} is neither a built-in preset nor a spec file")
    from .specfiles import load_specs  # only a spec file loads the JSON reader

    specs = load_specs(token)
    if len(specs) != 1:
        raise ValueError(f"spec file {token!r} must contain exactly one spec, found {len(specs)}")
    return specs[0]


def scaling_label(spec: ResourceSpec) -> str:
    """Asymptotic adversary-cost scaling implied by the spec's carry-over rule.

    "no closed form" without a rule, the override's alpha or k bound, "o(sT)"
    when all four properties hold, else "Omega(sT)" or "linear in T" by the throughput flag.
    """
    try:
        carry_over(spec, 1)  # the horizon sets only k's default, not whether a rule exists
    except ValueError:
        return "no closed form"
    if spec.alpha is not None:
        return f"Omega((1-alpha)*sT), alpha={spec.alpha}"
    if spec.k is not None:
        return f"Omega(sT/k), k={spec.k}"
    if is_parallelizable(spec):
        return "o(sT)"
    return "Omega(sT)" if spec.throughput_bounded else "linear in T"


def taxonomy_rows() -> tuple[dict[str, object], ...]:
    """Taxonomy presets as flat export rows (spec fields plus class and scaling)."""
    rows = []
    for spec in TAXONOMY:
        row: dict[str, object] = asdict(spec)
        row["resource_class"] = classify(spec).resource_class.value
        row["scaling"] = scaling_label(spec)
        rows.append(row)
    return tuple(rows)
