"""Tests for the declarative scenario package (``repro.scenario``).

Covers the compile contract (layers → ``WorldConfig``), conflict
detection, the strict ``scenario/v1`` file format, the named library
and its committed ``examples/scenarios/`` twins, scenario identity
(fingerprint → run-manifest digest), the topology recipes, and the
CLI surface.  The hypothesis properties pin the two guarantees the CI
scenario-matrix job relies on: compilation is deterministic and layer
order cannot change the compiled config.
"""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.topology import (
    build_topology,
    generate_ixp_topology,
    generate_regional_topology,
    generate_topology,
)
from repro.cli import main
from repro.runtime import build_run_manifest, cache_key
from repro.scenario import (
    NAMED_SCENARIOS,
    SCENARIO_FORMAT,
    AnomalyCalendar,
    EventCalendar,
    GrowthSchedule,
    LayerConflictError,
    RirPolicyMix,
    Scenario,
    ScenarioError,
    TopologyRecipe,
    get_scenario,
    load_scenario,
    resolve_scenario,
    save_scenario,
    scenario_fingerprint,
    scenario_from_dict,
    scenario_names,
    scenario_to_dict,
)
from repro.simulation import WorldConfig
from repro.simulation.config import UnknownConfigKeyError
from repro.timeline.dates import from_iso

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = REPO_ROOT / "examples" / "scenarios"


# ---------------------------------------------------------------------------
# Layers and compilation


class TestLayers:
    def test_set_fields_skips_unset(self):
        layer = GrowthSchedule(scale=0.01)
        assert layer.set_fields() == {"scale": 0.01}

    def test_overrides_apply_field_map_and_transforms(self):
        layer = GrowthSchedule(start="2005-01-01", end="2006-01-01")
        overrides = layer.overrides()
        assert overrides == {
            "start_day": from_iso("2005-01-01"),
            "end_day": from_iso("2006-01-01"),
        }

    def test_anomaly_calendar_renames_to_config_fields(self):
        layer = AnomalyCalendar(dormant_squats=7, noise_origins=9)
        assert layer.overrides() == {
            "dormant_squat_events": 7,
            "noise_origin_events": 9,
        }

    def test_recipe_renamed_to_topology_recipe(self):
        assert TopologyRecipe(recipe="ixp-heavy").overrides() == {
            "topology_recipe": "ixp-heavy"
        }

    @pytest.mark.parametrize("layer", [
        TopologyRecipe(recipe="full-mesh"),
        TopologyRecipe(tier1_count=0),
        GrowthSchedule(scale=0.0),
        GrowthSchedule(start="not-a-date"),
        GrowthSchedule(start="2010-01-01", end="2009-01-01"),
        AnomalyCalendar(dormant_squats=-1),
        EventCalendar(dangling_rate=1.5),
        RirPolicyMix(birth_rate_multiplier={"nosuchrir": 2.0}),
        RirPolicyMix(birth_rate_multiplier={"apnic": -1.0}),
        RirPolicyMix(hoarder_asns=(5, 2)),
    ])
    def test_bad_layer_values_rejected(self, layer):
        with pytest.raises(ScenarioError):
            layer.validate()

    def test_error_message_names_the_layer(self):
        with pytest.raises(ScenarioError, match="growth-schedule"):
            GrowthSchedule(scale=2.0).validate()


class TestCompile:
    def test_empty_scenario_compiles_to_defaults(self):
        config = Scenario(name="plain", seed=5).compile()
        assert config == WorldConfig(seed=5)

    def test_layers_override_config_fields(self):
        scenario = Scenario(
            name="s",
            seed=3,
            layers=(
                GrowthSchedule(scale=0.5, erx_transfers=10),
                TopologyRecipe(recipe="regional", regional_clusters=3),
            ),
        )
        config = scenario.compile()
        assert config.scale == 0.5
        assert config.erx_transfers == 10
        assert config.topology_recipe == "regional"
        assert config.regional_clusters == 3
        assert config.seed == 3

    def test_conflicting_layers_rejected(self):
        scenario = Scenario(
            name="s",
            layers=(GrowthSchedule(scale=0.5), GrowthSchedule(scale=0.25)),
        )
        with pytest.raises(LayerConflictError, match="scale"):
            scenario.compile()

    def test_agreeing_layers_are_not_a_conflict(self):
        scenario = Scenario(
            name="s",
            layers=(GrowthSchedule(scale=0.5), GrowthSchedule(scale=0.5)),
        )
        assert scenario.compile().scale == 0.5

    def test_invalid_compiled_config_is_a_scenario_error(self):
        scenario = Scenario(
            name="s", layers=(GrowthSchedule(start="2022-01-01"),)
        )
        # start after the default end day (2021-03-01) → WorldConfig
        # rejects the compiled window
        with pytest.raises(ScenarioError, match="invalid config"):
            scenario.compile()

    def test_needs_a_name(self):
        with pytest.raises(ScenarioError):
            Scenario(name="")

    def test_layers_must_be_layers(self):
        with pytest.raises(ScenarioError):
            Scenario(name="s", layers=("not-a-layer",))


class TestUnknownConfigKeys:
    def test_from_dict_rejects_unknown_key_by_name(self):
        with pytest.raises(UnknownConfigKeyError) as exc_info:
            WorldConfig.from_dict({"seed": 1, "scalee": 0.1})
        assert exc_info.value.keys == ("scalee",)
        assert "scalee" in str(exc_info.value)

    def test_from_dict_collects_every_unknown_key(self):
        with pytest.raises(UnknownConfigKeyError) as exc_info:
            WorldConfig.from_dict({"zz": 1, "aa": 2})
        assert exc_info.value.keys == ("aa", "zz")

    def test_from_dict_is_a_type_error(self):
        with pytest.raises(TypeError):
            WorldConfig.from_dict({"bogus": 1})

    def test_from_dict_round_trips_fingerprint(self):
        from repro.runtime.cache import fingerprint

        config = WorldConfig(seed=9, scale=0.01, hoarder_asns=(3, 7))
        rebuilt = WorldConfig.from_dict(fingerprint(config))
        assert rebuilt == config

    def test_from_dict_rejects_foreign_class_marker(self):
        with pytest.raises(UnknownConfigKeyError):
            WorldConfig.from_dict({"__class__": "OtherThing"})


# ---------------------------------------------------------------------------
# Determinism properties (hypothesis)


def _growth_layers():
    return st.builds(
        GrowthSchedule,
        scale=st.none() | st.floats(0.001, 1.0, allow_nan=False),
        erx_transfers=st.none() | st.integers(0, 20_000),
        inter_rir_transfers=st.none() | st.integers(0, 5_000),
    )


def _topology_layers():
    return st.builds(
        TopologyRecipe,
        recipe=st.none() | st.sampled_from(
            ["transit-hierarchy", "ixp-heavy", "regional"]
        ),
        tier1_count=st.none() | st.integers(1, 12),
        ixp_count=st.none() | st.integers(1, 8),
        peering_prob=st.none() | st.floats(0.0, 1.0, allow_nan=False),
    )


def _anomaly_layers():
    return st.builds(
        AnomalyCalendar,
        dormant_squats=st.none() | st.integers(0, 1_000),
        fat_finger_digits=st.none() | st.integers(0, 1_000),
        noise_origins=st.none() | st.integers(0, 5_000),
    )


def _event_layers():
    return st.builds(
        EventCalendar,
        dangling_rate=st.none() | st.floats(0.0, 1.0, allow_nan=False),
        median_start_delay=st.none() | st.integers(0, 400),
    )


def _policy_layers():
    return st.builds(
        RirPolicyMix,
        sibling_probability=st.none() | st.floats(0.0, 1.0, allow_nan=False),
        failed_32bit_rate=st.none() | st.floats(0.0, 1.0, allow_nan=False),
        hoarder_orgs=st.none() | st.integers(0, 50),
    )


def _scenario_layers():
    # at most one layer of each kind → conflicts are impossible and the
    # stack exercises every merge path
    return st.tuples(
        _growth_layers(), _topology_layers(), _anomaly_layers(),
        _event_layers(), _policy_layers(),
    )


class TestDeterminismProperties:
    @given(layers=_scenario_layers(), seed=st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_compile_is_deterministic(self, layers, seed):
        """Same layers → identical config fingerprint → identical
        run-manifest digest."""
        from repro.runtime.cache import fingerprint

        first = Scenario(name="prop", seed=seed, layers=layers)
        second = Scenario(name="prop", seed=seed, layers=layers)
        config_a = first.compile()
        config_b = second.compile()
        assert config_a == config_b
        assert fingerprint(config_a) == fingerprint(config_b)
        assert first.digest() == second.digest()
        assert scenario_fingerprint(first) == scenario_fingerprint(second)

        manifests = [
            build_run_manifest(
                config=config,
                settings={
                    "scenario": {
                        "name": scenario.name,
                        "digest": scenario.digest(),
                        "fingerprint": scenario_fingerprint(scenario),
                    }
                },
            )
            for scenario, config in ((first, config_a), (second, config_b))
        ]
        assert manifests[0]["digest"] == manifests[1]["digest"]

    @given(
        layers=_scenario_layers(),
        order=st.permutations(range(5)),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_layer_order_does_not_affect_compiled_config(
        self, layers, order, seed
    ):
        base = Scenario(name="prop", seed=seed, layers=layers)
        shuffled = Scenario(
            name="prop", seed=seed,
            layers=tuple(layers[i] for i in order),
        )
        assert shuffled.compile() == base.compile()
        assert shuffled.merged_overrides() == base.merged_overrides()

    @given(layers=_scenario_layers())
    @settings(max_examples=25, deadline=None)
    def test_json_round_trip_is_lossless(self, layers):
        scenario = Scenario(name="prop", description="d", seed=4, layers=layers)
        doc = json.loads(json.dumps(scenario_to_dict(scenario)))
        rebuilt = scenario_from_dict(doc)
        assert rebuilt.compile() == scenario.compile()
        assert scenario_to_dict(rebuilt) == scenario_to_dict(scenario)


# ---------------------------------------------------------------------------
# scenario/v1 file format


class TestScenarioFiles:
    def test_save_and_load_round_trip(self, tmp_path):
        scenario = get_scenario("mass-transfer")
        path = save_scenario(scenario, tmp_path / "s.json")
        assert load_scenario(path) == scenario

    def test_tuple_fields_survive_the_list_detour(self, tmp_path):
        scenario = Scenario(
            name="s", layers=(RirPolicyMix(hoarder_asns=(10, 40)),)
        )
        path = save_scenario(scenario, tmp_path / "s.json")
        rebuilt = load_scenario(path)
        assert rebuilt.layers[0].hoarder_asns == (10, 40)
        assert rebuilt == scenario

    def test_rejects_unknown_format(self):
        with pytest.raises(ScenarioError, match="format"):
            scenario_from_dict({"format": "scenario/v9", "name": "x"})

    def test_rejects_unknown_top_level_key(self):
        doc = {"format": SCENARIO_FORMAT, "name": "x", "extra": 1}
        with pytest.raises(ScenarioError, match="'extra'"):
            scenario_from_dict(doc)

    def test_rejects_unknown_layer_type(self):
        doc = {
            "format": SCENARIO_FORMAT,
            "name": "x",
            "layers": [{"layer": "weather"}],
        }
        with pytest.raises(ScenarioError, match="'weather'"):
            scenario_from_dict(doc)

    def test_rejects_unknown_layer_field(self):
        doc = {
            "format": SCENARIO_FORMAT,
            "name": "x",
            "layers": [{"layer": "growth-schedule", "scalee": 0.1}],
        }
        with pytest.raises(ScenarioError, match="'scalee'"):
            scenario_from_dict(doc)

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "nope.json")

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_scenario(path)


# ---------------------------------------------------------------------------
# Named library and the committed examples


class TestLibrary:
    def test_five_scenarios_in_presentation_order(self):
        assert scenario_names() == [
            "regional-internet", "flat-ixp-heavy", "32-bit-era",
            "mass-transfer", "hijack-storm",
        ]

    def test_every_named_scenario_compiles(self):
        for scenario in NAMED_SCENARIOS.values():
            config = scenario.compile()
            assert isinstance(config, WorldConfig)

    def test_digests_are_distinct(self):
        digests = {s.digest() for s in NAMED_SCENARIOS.values()}
        assert len(digests) == len(NAMED_SCENARIOS)

    def test_unknown_name_is_a_typed_error(self):
        with pytest.raises(ScenarioError, match="unknown scenario"):
            get_scenario("no-such-world")

    def test_resolve_prefers_names_then_paths(self, tmp_path):
        assert resolve_scenario("hijack-storm").name == "hijack-storm"
        path = save_scenario(get_scenario("32-bit-era"), tmp_path / "f.json")
        assert resolve_scenario(path) == get_scenario("32-bit-era")
        with pytest.raises(ScenarioError, match="neither"):
            resolve_scenario("missing-thing")

    def test_committed_examples_match_the_library(self):
        """examples/scenarios/*.json are the JSON twins of the library;
        regenerate with scripts/export_scenarios.py after edits."""
        for name, scenario in NAMED_SCENARIOS.items():
            path = EXAMPLES_DIR / f"{name}.json"
            assert path.exists(), f"missing scenario file: {path}"
            doc = json.loads(path.read_text(encoding="utf-8"))
            assert scenario_from_dict(doc) == scenario
            assert doc == scenario_to_dict(scenario)

    def test_committed_goldens_carry_matching_digests(self):
        for name, scenario in NAMED_SCENARIOS.items():
            path = EXAMPLES_DIR / "golden" / f"{name}.json"
            assert path.exists(), f"missing golden taxonomy: {path}"
            doc = json.loads(path.read_text(encoding="utf-8"))
            assert doc["format"] == "taxonomy/v1"
            assert doc["scenario"] == name
            assert doc["scenario_digest"] == scenario.digest()


# ---------------------------------------------------------------------------
# Topology recipes


class TestTopologyRecipes:
    ASNS = tuple(range(100, 100 + 160))

    def test_default_recipe_matches_legacy_generator(self):
        """The transit-hierarchy dispatch path is bit-compatible with
        the pre-scenario generator — the determinism contract."""
        config = WorldConfig(seed=1)
        built = build_topology(self.ASNS, config, seed=99)
        legacy = generate_topology(self.ASNS, seed=99)
        for asn in self.ASNS:
            assert built.providers(asn) == legacy.providers(asn)
            assert built.customers(asn) == legacy.customers(asn)
            assert built.peers(asn) == legacy.peers(asn)

    def test_ixp_recipe_keeps_a_transit_core(self):
        topo = generate_ixp_topology(self.ASNS, seed=7, ixp_count=4)
        assert len(topo.tier1s()) == 8  # default clique survives
        sellers = [a for a in self.ASNS if topo.customers(a)]
        assert len(sellers) >= 8
        # everything is attached: no isolated ASes
        for asn in self.ASNS:
            assert topo.degree(asn) >= 1

    def test_ixp_recipe_is_peering_dense(self):
        flat = generate_ixp_topology(self.ASNS, seed=7)
        hier = generate_topology(self.ASNS, seed=7)
        count = lambda t: sum(len(t.peers(a)) for a in self.ASNS)  # noqa: E731
        assert count(flat) > count(hier)

    def test_regional_recipe_builds_requested_islands(self):
        topo = generate_regional_topology(
            self.ASNS, seed=7, regional_clusters=4, hub_count=2
        )
        # every region contributes hub_count provider-free hubs
        assert len(topo.tier1s()) == 8
        for asn in self.ASNS:
            assert topo.degree(asn) >= 1
            if not topo.customers(asn) and asn not in topo.tier1s():
                assert topo.providers(asn)

    def test_regional_recipe_rejects_too_few_asns(self):
        with pytest.raises(ValueError):
            generate_regional_topology(
                tuple(range(10)), seed=1, regional_clusters=4
            )

    def test_dispatch_rejects_unknown_recipe(self):
        config = SimpleNamespace(topology_recipe="moebius")
        with pytest.raises(ValueError, match="moebius"):
            build_topology(self.ASNS, config, seed=1)

    def test_peering_is_symmetric_everywhere(self):
        for topo in (
            generate_ixp_topology(self.ASNS, seed=3),
            generate_regional_topology(self.ASNS, seed=3),
        ):
            for asn in self.ASNS:
                for peer in topo.peers(asn):
                    assert asn in topo.peers(peer)


# ---------------------------------------------------------------------------
# Cache-key identity


class TestScenarioIdentity:
    def test_digest_changes_with_any_layer_edit(self):
        base = Scenario(name="s", layers=(GrowthSchedule(scale=0.01),))
        edited = Scenario(name="s", layers=(GrowthSchedule(scale=0.02),))
        assert base.digest() != edited.digest()

    def test_same_config_different_scenarios_do_not_collide(self):
        """Two scenarios can compile to equal configs yet keep distinct
        cache identities — the reason the bundle key folds the scenario
        fingerprint in."""
        a = Scenario(name="a", layers=(GrowthSchedule(scale=0.01),))
        b = Scenario(name="b", layers=(GrowthSchedule(scale=0.01),))
        assert a.compile() == b.compile()
        key_a = cache_key(
            config=a.compile(), scenario=scenario_fingerprint(a)
        )
        key_b = cache_key(
            config=b.compile(), scenario=scenario_fingerprint(b)
        )
        assert key_a != key_b


# ---------------------------------------------------------------------------
# CLI


class TestScenarioCli:
    def test_scenarios_listing(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_scenarios_json_listing(self, capsys):
        assert main(["scenarios", "--json"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert [d["name"] for d in docs] == scenario_names()
        assert all(d["format"] == SCENARIO_FORMAT for d in docs)

    def test_simulate_rejects_unknown_scenario(self, capsys):
        assert main([
            "simulate", "--scenario", "no-such-world", "--out", "/tmp/x",
        ]) == 2
        assert "no-such-world" in capsys.readouterr().err

    def test_simulate_runs_a_scenario_file(self, tmp_path, capsys):
        scenario = Scenario(
            name="cli-tiny",
            seed=21,
            layers=(
                GrowthSchedule(scale=0.004),
                TopologyRecipe(recipe="ixp-heavy", ixp_count=2),
            ),
        )
        path = save_scenario(scenario, tmp_path / "cli-tiny.json")
        out_dir = tmp_path / "run"
        rc = main([
            "simulate", "--scenario", str(path),
            "--out", str(out_dir), "--taxonomy-out",
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "cli-tiny" in stdout

        taxonomy = json.loads(
            (out_dir / "taxonomy.json").read_text(encoding="utf-8")
        )
        assert taxonomy["format"] == "taxonomy/v1"
        assert taxonomy["scenario"] == "cli-tiny"
        assert taxonomy["scenario_digest"] == scenario.digest()
        for side in ("admin_counts", "op_counts"):
            assert set(taxonomy[side]) == {
                "complete_overlap", "partial_overlap",
                "unused", "outside_delegation",
            }

        manifest = json.loads(
            (out_dir / "run_manifest.json").read_text(encoding="utf-8")
        )
        entry = manifest["settings"]["scenario"]
        assert entry["name"] == "cli-tiny"
        assert entry["digest"] == scenario.digest()
        assert entry["fingerprint"] == scenario_fingerprint(scenario)

    def test_plain_simulate_has_no_scenario_entry(self, tmp_path):
        rc = main([
            "simulate", "--scale", "0.004", "--seed", "8",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        manifest = json.loads(
            (tmp_path / "run_manifest.json").read_text(encoding="utf-8")
        )
        assert manifest["settings"]["scenario"] is None
