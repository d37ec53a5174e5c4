"""Declarative scenario composition (seed-emulator style).

A :class:`Scenario` is a named stack of independent declarative layers
— RIR policy mix, topology recipe, growth & transfer schedule, anomaly
calendar, operational event calendar — that compiles down to the
existing :class:`~repro.simulation.config.WorldConfig` and runs under
the unchanged pipeline, cache, ledger, and benchmark machinery.

See ``DESIGN.md`` §9 for the layer model and compile contract, and
``examples/scenarios/`` for the named scenario files.
"""

from .io import (
    SCENARIO_FORMAT,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from .layers import (
    LAYER_TYPES,
    AnomalyCalendar,
    EventCalendar,
    GrowthSchedule,
    Layer,
    LayerConflictError,
    RirPolicyMix,
    ScenarioError,
    TopologyRecipe,
)
from .library import (
    NAMED_SCENARIOS,
    get_scenario,
    resolve_scenario,
    scenario_names,
)
from .scenario import Scenario, scenario_fingerprint

__all__ = [
    "SCENARIO_FORMAT",
    "LAYER_TYPES",
    "NAMED_SCENARIOS",
    "AnomalyCalendar",
    "EventCalendar",
    "GrowthSchedule",
    "Layer",
    "LayerConflictError",
    "RirPolicyMix",
    "Scenario",
    "ScenarioError",
    "TopologyRecipe",
    "get_scenario",
    "load_scenario",
    "resolve_scenario",
    "save_scenario",
    "scenario_fingerprint",
    "scenario_from_dict",
    "scenario_names",
    "scenario_to_dict",
]
