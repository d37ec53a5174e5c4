"""Cross-cutting property-based and robustness tests of the pipeline.

These exercise whole-pipeline invariants over randomized worlds and
defect loads: lifetimes are disjoint and ordered, taxonomy partitions
everything exactly once, restoration never leaves overlapping rows,
heavier defect loads never crash the pipeline.
"""

import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Category, classify
from repro.core.report import render_report
from repro.rir import PitfallConfig
from repro.runtime import ArtifactCache, MetricsRegistry, Tracer, dumps_with_gc_paused
from repro.simulation import WorldConfig, build_datasets, tiny

# building a world is ~1s; keep hypothesis example counts low
WORLD_SETTINGS = dict(max_examples=5, deadline=None)


@pytest.fixture(scope="module")
def bundle():
    return build_datasets(tiny(seed=77))


class TestLifetimeInvariants:
    def test_admin_lives_disjoint_and_ordered(self, bundle):
        for asn, lives in bundle.admin_lives.items():
            for a, b in zip(lives, lives[1:]):
                assert a.end < b.start, asn
            for life in lives:
                assert life.duration >= 1

    def test_op_lives_disjoint_and_spaced(self, bundle):
        for asn, lives in bundle.op_lives.items():
            for a, b in zip(lives, lives[1:]):
                assert b.start - a.end - 1 > 30, asn  # the timeout

    def test_open_ended_iff_reaching_window_end(self, bundle):
        end = bundle.world.end_day
        for lives in bundle.admin_lives.values():
            for life in lives:
                assert life.open_ended == (life.end >= end)

    def test_admin_lives_inside_window_unless_censored(self, bundle):
        start = bundle.world.config.start_day
        for lives in bundle.admin_lives.values():
            for life in lives:
                if not life.left_censored:
                    # observation cannot precede the simulation start
                    assert life.start >= start - 31  # publication lag

    def test_left_censored_lives_backdated(self, bundle):
        censored = [
            life
            for lives in bundle.admin_lives.values()
            for life in lives
            if life.left_censored
        ]
        assert censored  # historical seeds guarantee some
        for life in censored:
            assert life.start == life.reg_date

    def test_restored_stints_sorted(self, bundle):
        for asn, stints in bundle.restored.stints.items():
            starts = [s.start for s in stints]
            assert starts == sorted(starts), asn


class TestTaxonomyPartition:
    def test_every_lifetime_assigned_once(self, bundle):
        result = classify(
            bundle.admin_lives, bundle.op_lives, metrics=MetricsRegistry()
        )
        admin_total = sum(len(v) for v in bundle.admin_lives.values())
        op_total = sum(len(v) for v in bundle.op_lives.values())
        assert len(result.admin_assignment) == admin_total
        assert len(result.op_assignment) == op_total
        assert sum(result.admin_counts.values()) == admin_total
        assert sum(result.op_counts.values()) == op_total

    def test_unused_lives_have_no_overlap(self, bundle):
        result = classify(
            bundle.admin_lives, bundle.op_lives, metrics=MetricsRegistry()
        )
        unused = result.admin_lives_in(Category.UNUSED, bundle.admin_lives)
        for life in unused:
            ops = bundle.op_lives.get(life.asn, ())
            assert not any(op.interval.overlaps(life.interval) for op in ops)


@settings(**WORLD_SETTINGS)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_pipeline_invariants_across_seeds(seed):
    bundle = build_datasets(WorldConfig(seed=seed, scale=0.004))
    # every analysis runs without error and the partition is exact
    result = bundle.joint.taxonomy
    assert result.totals() == (
        bundle.joint.total_admin_lifetimes(),
        bundle.joint.total_op_lifetimes(),
    )
    # the squat detector never misses planted dormant squats
    score = bundle.joint.squatting_score()
    assert score["recall"] == 1.0
    # restored rows never overlap within one registry
    for stints in bundle.restored.stints.values():
        for a, b in zip(stints, stints[1:]):
            if a.record.registry == b.record.registry:
                assert a.end < b.start


@settings(max_examples=3, deadline=None)
@given(
    missing=st.floats(min_value=0.0, max_value=0.03),
    drops=st.integers(min_value=0, max_value=6),
)
def test_restoration_survives_heavier_defect_loads(missing, drops):
    config = PitfallConfig(
        missing_file_rate=missing,
        record_drop_events_per_source=drops,
    )
    bundle = build_datasets(
        WorldConfig(seed=5, scale=0.004), pitfall_config=config
    )
    assert bundle.joint.total_admin_lifetimes() > 0
    # lifetime counts stay within a sane band of the ground truth even
    # under heavy corruption
    truth = len(bundle.world.lives)
    recovered = bundle.joint.total_admin_lifetimes()
    assert abs(recovered - truth) / truth < 0.25


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_warm_verified_hit_is_byte_identical_to_cold_build(seed):
    """A checksum-verified warm hit never diverges from a cold build.

    This is the cache's no-silent-wrong-answer contract: whatever the
    verification layer does (manifest reads, re-reads, quarantines), a
    hit must hand back *exactly* the artifact a cacheless run builds —
    compared on pickled bytes, not just equality.
    """
    config = WorldConfig(seed=seed, scale=0.004)
    cold = build_datasets(config)
    # tempfile instead of tmp_path: function-scoped fixtures do not
    # combine with @given (one fixture instance spans all examples)
    root = tempfile.mkdtemp(prefix="repro-cache-prop-")
    try:
        cache = ArtifactCache(root, faults=None)
        stored = build_datasets(config, cache=cache)
        run = Tracer()
        warm = build_datasets(config, cache=cache, tracer=run)
        assert run.metrics.snapshot()["counters"]["cache.hits"] == 1
        for part in ("admin_lives", "op_lives"):
            cold_bytes = dumps_with_gc_paused(getattr(cold, part))
            assert dumps_with_gc_paused(getattr(stored, part)) == cold_bytes
            assert dumps_with_gc_paused(getattr(warm, part)) == cold_bytes
    finally:
        shutil.rmtree(root, ignore_errors=True)


class TestReportRendering:
    def test_full_report(self, bundle):
        text = render_report(
            bundle.joint, restoration=bundle.restoration_report
        )
        for fragment in (
            "Datasets (§4)",
            "Taxonomy (§6, Table 3)",
            "complete_overlap",
            "Dormant-ASN squatting",
            "Unused administrative lives",
            "never-allocated ASNs",
        ):
            assert fragment in text

    def test_report_without_restoration(self, bundle):
        text = render_report(bundle.joint)
        assert "Archive restoration" not in text
