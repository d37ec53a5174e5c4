"""Declarative scenario layers.

A scenario (:mod:`repro.scenario.scenario`) is composed of independent
layers in the seed-emulator style: each layer owns one aspect of the
simulated world — the RIR policy mix, the topology recipe, the growth
and transfer schedule, the anomaly calendar, the operational event
calendar — and contributes a set of :class:`~repro.simulation.config.
WorldConfig` field overrides when the scenario compiles.

Every layer is a frozen dataclass whose fields all default to ``None``
(= "leave the simulator default alone").  A layer only ever *sets*
fields, so composition is commutative: the compiled config cannot
depend on layer order.  Two layers that set the same underlying config
field to different values are a :class:`LayerConflictError` — the one
way composition can fail.

Layer field names are scenario-file vocabulary and deliberately
decoupled from ``WorldConfig`` field names (``recipe`` →
``topology_recipe``, ``dormant_squats`` → ``dormant_squat_events``,
``start`` → ``start_day`` with ISO-date parsing); each class carries
the mapping in ``_FIELD_MAP`` / ``_TRANSFORMS``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Dict, Mapping, Optional, Tuple, Type

from ..rir.model import RIR_NAMES
from ..simulation.config import TOPOLOGY_RECIPES
from ..timeline.dates import from_iso

__all__ = [
    "ScenarioError",
    "LayerConflictError",
    "Layer",
    "RirPolicyMix",
    "TopologyRecipe",
    "GrowthSchedule",
    "AnomalyCalendar",
    "EventCalendar",
    "LAYER_TYPES",
]


class ScenarioError(ValueError):
    """Invalid scenario: bad layer values, unknown names, bad files."""


class LayerConflictError(ScenarioError):
    """Two layers set the same ``WorldConfig`` field to different values."""


def _identity(value: Any) -> Any:
    return value


@dataclass(frozen=True)
class Layer:
    """Base class: override bookkeeping shared by every layer.

    Subclasses declare ``_FIELD_MAP`` (layer field → ``WorldConfig``
    field; identity when omitted) and ``_TRANSFORMS`` (layer field →
    value converter applied at compile time).
    """

    #: Scenario-file type tag; subclasses override.
    layer_name: ClassVar[str] = "layer"
    _FIELD_MAP: ClassVar[Mapping[str, str]] = {}
    _TRANSFORMS: ClassVar[Mapping[str, Callable[[Any], Any]]] = {}

    def validate(self) -> None:
        """Raise :class:`ScenarioError` on out-of-range values.

        Range checks that :class:`WorldConfig` would also reject are
        repeated here with layer-level messages, so a bad scenario file
        fails naming the layer, not the compiled artifact.
        """

    def set_fields(self) -> Dict[str, Any]:
        """The explicitly-set (non-``None``) layer fields, by layer name."""
        out: Dict[str, Any] = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is not None:
                out[f.name] = value
        return out

    def overrides(self) -> Dict[str, Any]:
        """Contribute ``WorldConfig`` field overrides (compile step)."""
        out: Dict[str, Any] = {}
        for name, value in self.set_fields().items():
            transform = self._TRANSFORMS.get(name, _identity)
            try:
                converted = transform(value)
            except (TypeError, ValueError) as exc:
                raise ScenarioError(
                    f"{self.layer_name}: bad value for {name!r}: {exc}"
                ) from None
            out[self._FIELD_MAP.get(name, name)] = converted
        return out

    # -- shared validation helpers -------------------------------------

    def _require_fraction(self, *names: str) -> None:
        for name in names:
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ScenarioError(
                    f"{self.layer_name}: {name} must be in [0, 1], "
                    f"got {value!r}"
                )

    def _require_non_negative(self, *names: str) -> None:
        for name in names:
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ScenarioError(
                    f"{self.layer_name}: {name} must be >= 0, got {value!r}"
                )

    def _require_pair(self, *names: str) -> None:
        for name in names:
            value = getattr(self, name)
            if value is None:
                continue
            if (
                len(value) != 2
                or any(not isinstance(v, int) for v in value)
                or value[0] > value[1]
                or value[0] < 0
            ):
                raise ScenarioError(
                    f"{self.layer_name}: {name} must be a (lo, hi) pair "
                    f"of non-negative ints with lo <= hi, got {value!r}"
                )


@dataclass(frozen=True)
class RirPolicyMix(Layer):
    """Registry-side behavior: who allocates how much, to whom.

    ``birth_rate_multiplier`` scales the paper-shaped per-registry
    birth curves (the regional-growth lever); the remaining knobs move
    the administrative-behavior rates of §5/§6.3.
    """

    layer_name = "rir-policy-mix"

    historical_allocations: Optional[int] = None
    birth_rate_multiplier: Optional[Dict[str, float]] = None
    sibling_probability: Optional[float] = None
    hoarder_orgs: Optional[int] = None
    hoarder_asns: Optional[Tuple[int, int]] = None
    nir_block_size: Optional[Tuple[int, int]] = None
    failed_32bit_rate: Optional[float] = None
    regdate_correction_rate: Optional[float] = None

    def validate(self) -> None:
        self._require_non_negative("historical_allocations", "hoarder_orgs")
        self._require_fraction(
            "sibling_probability", "failed_32bit_rate", "regdate_correction_rate"
        )
        self._require_pair("hoarder_asns", "nir_block_size")
        if self.birth_rate_multiplier is not None:
            for registry, rate in self.birth_rate_multiplier.items():
                if registry not in RIR_NAMES:
                    raise ScenarioError(
                        f"{self.layer_name}: unknown registry {registry!r} "
                        f"in birth_rate_multiplier"
                    )
                if rate < 0:
                    raise ScenarioError(
                        f"{self.layer_name}: birth_rate_multiplier for "
                        f"{registry!r} must be >= 0, got {rate!r}"
                    )


@dataclass(frozen=True)
class TopologyRecipe(Layer):
    """How the AS graph and the collector infrastructure are wired."""

    layer_name = "topology-recipe"
    _FIELD_MAP = {"recipe": "topology_recipe"}

    recipe: Optional[str] = None
    tier1_count: Optional[int] = None
    transit_share: Optional[float] = None
    peering_prob: Optional[float] = None
    stub_extra_provider_prob: Optional[float] = None
    ixp_count: Optional[int] = None
    regional_clusters: Optional[int] = None
    routeviews_collectors: Optional[int] = None
    ris_collectors: Optional[int] = None
    peers_per_collector: Optional[int] = None

    def validate(self) -> None:
        if self.recipe is not None and self.recipe not in TOPOLOGY_RECIPES:
            raise ScenarioError(
                f"{self.layer_name}: unknown recipe {self.recipe!r} "
                f"(expected one of {', '.join(TOPOLOGY_RECIPES)})"
            )
        self._require_fraction(
            "transit_share", "peering_prob", "stub_extra_provider_prob"
        )
        for name in (
            "tier1_count", "ixp_count", "regional_clusters",
            "peers_per_collector",
        ):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ScenarioError(
                    f"{self.layer_name}: {name} must be >= 1, got {value!r}"
                )
        self._require_non_negative("routeviews_collectors", "ris_collectors")


@dataclass(frozen=True)
class GrowthSchedule(Layer):
    """The observation window, the scale, and the transfer volumes."""

    layer_name = "growth-schedule"
    _FIELD_MAP = {"start": "start_day", "end": "end_day"}
    _TRANSFORMS = {"start": from_iso, "end": from_iso}

    #: ISO dates (``YYYY-MM-DD``) — parsed at compile time.
    start: Optional[str] = None
    end: Optional[str] = None
    scale: Optional[float] = None
    erx_transfers: Optional[int] = None
    inter_rir_transfers: Optional[int] = None

    def validate(self) -> None:
        for name in ("start", "end"):
            value = getattr(self, name)
            if value is not None:
                try:
                    from_iso(value)
                except (TypeError, ValueError):
                    raise ScenarioError(
                        f"{self.layer_name}: {name} must be an ISO date "
                        f"(YYYY-MM-DD), got {value!r}"
                    ) from None
        if (
            self.start is not None
            and self.end is not None
            and from_iso(self.end) <= from_iso(self.start)
        ):
            raise ScenarioError(
                f"{self.layer_name}: end ({self.end}) must follow "
                f"start ({self.start})"
            )
        if self.scale is not None and not 0.0 < self.scale <= 1.0:
            raise ScenarioError(
                f"{self.layer_name}: scale must be in (0, 1], "
                f"got {self.scale!r}"
            )
        self._require_non_negative("erx_transfers", "inter_rir_transfers")


@dataclass(frozen=True)
class AnomalyCalendar(Layer):
    """§6 anomaly event volumes (absolute counts at scale 1.0)."""

    layer_name = "anomaly-calendar"
    _FIELD_MAP = {
        "dormant_squats": "dormant_squat_events",
        "post_dealloc_squats": "post_dealloc_squat_events",
        "fat_finger_prepends": "fat_finger_prepend_events",
        "fat_finger_digits": "fat_finger_digit_events",
        "internal_leaks": "internal_leak_events",
        "noise_origins": "noise_origin_events",
    }

    dormant_squats: Optional[int] = None
    post_dealloc_squats: Optional[int] = None
    fat_finger_prepends: Optional[int] = None
    fat_finger_digits: Optional[int] = None
    internal_leaks: Optional[int] = None
    noise_origins: Optional[int] = None

    def validate(self) -> None:
        self._require_non_negative(*(f.name for f in dataclasses.fields(self)))


@dataclass(frozen=True)
class EventCalendar(Layer):
    """Operational-behavior event rates (§6.1/§6.2 lifecycle shape)."""

    layer_name = "event-calendar"

    unused_probability: Optional[float] = None
    unused_country_multiplier: Optional[Dict[str, float]] = None
    hoarder_used_probability: Optional[float] = None
    median_start_delay: Optional[int] = None
    gap_rate_per_800_days: Optional[float] = None
    short_gap_share: Optional[float] = None
    dangling_rate: Optional[float] = None
    early_start_rate: Optional[float] = None
    ghost_burst_rate: Optional[float] = None
    spurious_rate: Optional[float] = None
    sporadic_rate: Optional[float] = None

    def validate(self) -> None:
        self._require_fraction(
            "unused_probability", "hoarder_used_probability",
            "short_gap_share", "dangling_rate", "early_start_rate",
            "ghost_burst_rate", "spurious_rate", "sporadic_rate",
        )
        self._require_non_negative(
            "median_start_delay", "gap_rate_per_800_days"
        )
        if self.unused_country_multiplier is not None:
            for cc, rate in self.unused_country_multiplier.items():
                if rate < 0:
                    raise ScenarioError(
                        f"{self.layer_name}: unused_country_multiplier for "
                        f"{cc!r} must be >= 0, got {rate!r}"
                    )


#: Scenario-file type tag → layer class (the ``scenario/v1`` registry).
LAYER_TYPES: Dict[str, Type[Layer]] = {
    cls.layer_name: cls
    for cls in (
        RirPolicyMix, TopologyRecipe, GrowthSchedule,
        AnomalyCalendar, EventCalendar,
    )
}
