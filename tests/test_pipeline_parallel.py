"""Serial-vs-parallel equivalence of the pipeline (the determinism contract).

DESIGN.md promises that every execution backend yields **bit-identical**
pipeline output: same stints, same lifetimes, same report counters, same
taxonomy, and even the same dict ordering.  These tests build the tiny
world once per backend and compare the bundles component by component,
plus the per-collector dump files byte for byte.
"""

from __future__ import annotations

import pickle

import pytest

from repro.bgp.dumps import dump_file_name, materialize_collector_dumps
from repro.runtime import ArtifactCache, MetricsRegistry, PipelineStats
from repro.simulation import build_datasets
from repro.simulation.config import tiny
from repro.simulation.world import WorldSimulator


@pytest.fixture(scope="module")
def serial_bundle():
    return build_datasets(tiny(seed=7))


@pytest.fixture(scope="module")
def parallel_bundle():
    return build_datasets(tiny(seed=7), jobs=2)


class TestBundleEquivalence:
    def test_restored_stints_identical(self, serial_bundle, parallel_bundle):
        assert parallel_bundle.restored.stints == serial_bundle.restored.stints
        # ordering too, not just contents: merge order is part of the contract
        assert list(parallel_bundle.restored.stints) == list(
            serial_bundle.restored.stints
        )

    def test_admin_lifetimes_identical(self, serial_bundle, parallel_bundle):
        assert parallel_bundle.admin_lives == serial_bundle.admin_lives
        assert list(parallel_bundle.admin_lives) == list(serial_bundle.admin_lives)

    def test_op_lifetimes_identical(self, serial_bundle, parallel_bundle):
        assert parallel_bundle.op_lives == serial_bundle.op_lives
        assert list(parallel_bundle.op_lives) == list(serial_bundle.op_lives)

    def test_restoration_report_identical(self, serial_bundle, parallel_bundle):
        assert (
            parallel_bundle.restoration_report.summary()
            == serial_bundle.restoration_report.summary()
        )

    def test_injected_defects_identical(self, serial_bundle, parallel_bundle):
        assert parallel_bundle.injected_defects == serial_bundle.injected_defects

    def test_taxonomy_counts_identical(self, serial_bundle, parallel_bundle):
        serial_tax = serial_bundle.joint.taxonomy
        parallel_tax = parallel_bundle.joint.taxonomy
        assert parallel_tax.admin_counts == serial_tax.admin_counts
        assert parallel_tax.op_counts == serial_tax.op_counts
        assert parallel_tax.table3_rows() == serial_tax.table3_rows()


class TestExecutorSpecs:
    def test_explicit_string_spec(self, serial_bundle):
        bundle = build_datasets(tiny(seed=7), executor="serial")
        assert bundle.admin_lives == serial_bundle.admin_lives

    def test_stats_backend_reflects_executor(self):
        stats = PipelineStats()
        build_datasets(tiny(seed=7), jobs=2, stats=stats)
        assert stats.backend == "process"
        assert stats.seconds_of("restore:per-registry") > 0

    def test_restoration_stays_in_process_under_a_pool(self, serial_bundle):
        # restoration ships nothing to workers: a pool run's restore
        # stages carry no shipped bytes and spawn no task spans, and
        # the bundle still equals the serial build
        stats = PipelineStats(metrics=MetricsRegistry())
        bundle = build_datasets(tiny(seed=7), executor="process:2", stats=stats)
        spans = stats.tracer.spans
        for name in ("restore:views", "restore:per-registry"):
            (stage,) = [s for s in spans if s.name == name]
            assert "bytes_shipped" not in stage.attrs
            assert not [s for s in spans if s.parent_id == stage.span_id]
        # the pool did run: the lifetime stages still fan out
        assert stats.metrics.snapshot()["counters"]["executor.bytes_shipped"] > 0
        assert pickle.dumps(bundle.restored.stints) == pickle.dumps(
            serial_bundle.restored.stints
        )
        assert (
            bundle.restoration_report.summary()
            == serial_bundle.restoration_report.summary()
        )
        assert bundle.admin_lives == serial_bundle.admin_lives
        assert bundle.op_lives == serial_bundle.op_lives


class TestCachedBundle:
    def test_warm_hit_equals_cold_build(self, tmp_path, serial_bundle):
        cache = ArtifactCache(tmp_path, faults=None)  # pins exact hit counts
        cold = build_datasets(tiny(seed=7), cache=cache)
        stats = PipelineStats()
        warm = build_datasets(tiny(seed=7), cache=cache, stats=stats)
        assert cache.hits == 1
        # a hit returns before any pipeline stage runs
        assert [s.name for s in stats.stages] == ["cache:lookup"]
        for bundle in (cold, warm):
            assert bundle.restored.stints == serial_bundle.restored.stints
            assert bundle.admin_lives == serial_bundle.admin_lives
            assert bundle.op_lives == serial_bundle.op_lives
            assert (
                bundle.joint.taxonomy.table3_rows()
                == serial_bundle.joint.taxonomy.table3_rows()
            )

    def test_parameter_change_misses(self, tmp_path):
        cache = ArtifactCache(tmp_path, faults=None)  # pins exact hit counts
        build_datasets(tiny(seed=7), cache=cache)
        build_datasets(tiny(seed=7), cache=cache, timeout=60)
        # timeout is part of the bundle key, so both builds miss
        assert cache.misses == 2
        assert cache.hits == 0


class TestDumpEquivalence:
    def test_collector_dumps_bit_identical(self, tmp_path):
        world = WorldSimulator(tiny(seed=7)).run()
        end = world.end_day
        start = end - 4
        announcements = {
            day: world.announcements_for_day(day) for day in range(start, end + 1)
        }
        written = {}
        for label, spec in (("serial", None), ("process", 2)):
            out = tmp_path / label
            written[label] = materialize_collector_dumps(
                world.topology, world.collectors, announcements, out,
                start=start, end=end, executor=spec,
            )
        assert written["serial"] == written["process"]
        assert set(written["serial"]) == {c.name for c in world.collectors}
        for collector in world.collectors:
            for day in range(start, end + 1):
                name = dump_file_name(day)
                serial_file = tmp_path / "serial" / collector.name / name
                process_file = tmp_path / "process" / collector.name / name
                assert serial_file.read_bytes() == process_file.read_bytes()

    def test_rejects_inverted_window(self, tmp_path):
        world = WorldSimulator(tiny(seed=7)).run()
        with pytest.raises(ValueError):
            materialize_collector_dumps(
                world.topology, world.collectors, {}, tmp_path,
                start=world.end_day, end=world.end_day - 1,
            )
