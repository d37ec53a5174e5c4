"""The :class:`Scenario` object and its compile contract.

A scenario is a named, seeded, *ordered-but-order-insensitive* stack
of declarative layers.  :meth:`Scenario.compile` folds every layer's
``WorldConfig`` overrides together — rejecting cross-layer conflicts —
and builds the config through the strict
:meth:`~repro.simulation.config.WorldConfig.from_dict` path, so a
compiled scenario runs under the existing pipeline (``simulate()``,
cache, ledger, benchmarks) unchanged.

Identity: :func:`scenario_fingerprint` reduces a scenario to the same
canonical structure the artifact cache uses for configs, and
:meth:`Scenario.digest` hashes it.  The CLI folds the digest into the
run manifest and the dataset-bundle cache key, so two runs of the same
named scenario share cache entries and two different scenarios never
collide — even when they happen to compile to the same config.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from ..runtime.cache import cache_key, fingerprint
from ..simulation.config import UnknownConfigKeyError, WorldConfig
from .layers import Layer, LayerConflictError, ScenarioError

__all__ = ["Scenario", "scenario_fingerprint"]


@dataclass(frozen=True)
class Scenario:
    """A declarative world recipe: name + seed + layer stack."""

    name: str
    description: str = ""
    seed: int = 0
    layers: Tuple[Layer, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ScenarioError("a scenario needs a non-empty name")
        for layer in self.layers:
            if not isinstance(layer, Layer):
                raise ScenarioError(
                    f"scenario {self.name!r}: {layer!r} is not a Layer"
                )

    def validate(self) -> None:
        """Validate every layer (raises :class:`ScenarioError`)."""
        for layer in self.layers:
            layer.validate()

    def merged_overrides(self) -> Dict[str, Any]:
        """Fold layer overrides, rejecting cross-layer conflicts.

        Commutative by construction: each config field may be set by
        any number of layers as long as they all agree, so the merge
        result — and therefore the compiled config — cannot depend on
        layer order.
        """
        merged: Dict[str, Any] = {}
        owner: Dict[str, str] = {}
        for layer in self.layers:
            for field, value in layer.overrides().items():
                if field in merged and merged[field] != value:
                    raise LayerConflictError(
                        f"scenario {self.name!r}: layers "
                        f"{owner[field]!r} and {layer.layer_name!r} both "
                        f"set {field!r} with different values "
                        f"({merged[field]!r} vs {value!r})"
                    )
                merged.setdefault(field, value)
                owner.setdefault(field, layer.layer_name)
        return merged

    def compile(self) -> WorldConfig:
        """Validate, merge, and build the :class:`WorldConfig`."""
        self.validate()
        merged = self.merged_overrides()
        try:
            config = WorldConfig.from_dict({"seed": self.seed, **merged})
        except UnknownConfigKeyError as exc:
            # layers can only emit known fields, so this means a layer
            # mapping bug — surface it as a scenario error regardless
            raise ScenarioError(
                f"scenario {self.name!r} compiled unknown config keys: {exc}"
            ) from exc
        except ValueError as exc:
            raise ScenarioError(
                f"scenario {self.name!r} compiles to an invalid config: {exc}"
            ) from exc
        return config

    def digest(self) -> str:
        """Content hash of the scenario definition (cache-key grade)."""
        return cache_key(scenario=self)


def scenario_fingerprint(scenario: Scenario) -> Any:
    """Canonical JSON-compatible identity structure of a scenario.

    The same reduction the artifact cache applies to configs
    (dataclasses → tagged dicts, tuples → lists), so the fingerprint
    embeds directly into run manifests and cache keys.
    """
    return fingerprint(scenario)
