"""Pipeline runtime scaling: stage profile, cache speedup, BGP engines.

Unlike the other benchmarks (which regenerate paper tables/figures),
this one measures the *pipeline itself*: per-stage wall times of a cold
build (every run is one process; see DESIGN.md §5.7) and the
cold-build vs. warm-cache-hit speedup.  The numbers go to
``benchmarks/results/pipeline_scaling.txt``; the assertions pin the
cache's reason to exist (a warm hit is an order of magnitude faster
than a rebuild).
"""

from __future__ import annotations

import os
from time import perf_counter

from repro.lifetimes.bgp import build_operational_dataset
from repro.runtime import ArtifactCache, PipelineStats, ledger_disabled
from repro.simulation import bench, build_datasets
from repro.simulation.config import tiny
from repro.simulation.world import WorldSimulator

from conftest import CACHE_DIR


def _timed_build(**kwargs):
    start = perf_counter()
    bundle = build_datasets(bench(seed=2021), **kwargs)
    return bundle, perf_counter() - start


def test_pipeline_scaling(record_result):
    cold_stats = PipelineStats()
    _, cold_seconds = _timed_build(stats=cold_stats)

    # every pipeline stage shows up in the profile
    for name in ("simulate", "restore:per-registry", "admin-lifetimes",
                 "bgp-lifetimes"):
        assert cold_stats.seconds_of(name) > 0

    # warm-cache hit: ensure the entry exists, then time a pure hit.
    # A hit returns a partitioned bundle (components decode on first
    # access), so the hit itself costs file I/O, not graph rebuilding.
    cache = ArtifactCache(CACHE_DIR)
    build_datasets(bench(seed=2021), cache=cache)
    warm_stats = PipelineStats()
    _, warm_seconds = _timed_build(cache=cache, stats=warm_stats)
    assert cache.hits >= 1
    assert [s.name for s in warm_stats.stages] == ["cache:lookup"]
    cache_speedup = cold_seconds / warm_seconds
    assert cache_speedup >= 10, (
        f"warm cache hit only {cache_speedup:.1f}x faster than cold build "
        f"({warm_seconds:.3f}s vs {cold_seconds:.3f}s)"
    )

    lines = [
        f"host CPUs: {os.cpu_count()} (every run is one process)",
        "",
        cold_stats.render(),
        "",
        f"{'cold build':<28} {cold_seconds:>9.3f}s",
        f"{'warm cache hit':<28} {warm_seconds:>9.3f}s",
        f"{'cold/warm cache speedup':<28} {cache_speedup:>9.2f}x",
    ]
    record_result("pipeline_scaling", "\n".join(lines))


#: Stages the columnar activity engine replaces (segmentation and cache
#: I/O are shared between engines and excluded from the speedup).
_ACTIVITY_STAGES = ("bgp:stream", "bgp:sanitize", "bgp:visibility")


def _activity_stage_seconds(stats: PipelineStats) -> float:
    return sum(stats.seconds_of(name) for name in _ACTIVITY_STAGES)


def test_bgp_activity_scaling(record_result, tmp_path):
    """Columnar vs. object BGP activity: speed, determinism, warm hit.

    One tiny-scale world, one short reference slice: the object-stream
    oracle and the columnar production engine each build the slice's
    activity tables, which must be identical, and the columnar
    engine's stream+sanitize+visibility stages must beat the oracle
    >= 3x.  The columnar run stores an ``activity-table`` entry; a
    warm re-run (asking for the object engine, since the key ignores
    the engine) must hit it and skip the stream stages entirely.
    """
    world = WorldSimulator(tiny(seed=2021)).run()
    end = world.config.end_day
    ref_days = 14
    ref_window = dict(start=end - ref_days + 1, end=end)

    object_stats = PipelineStats()
    t0 = perf_counter()
    object_lives, object_tables = build_operational_dataset(
        world, engine="object", stats=object_stats, **ref_window,
    )
    object_seconds = perf_counter() - t0

    cache = ArtifactCache(tmp_path / "cache", faults=None)
    columnar_stats = PipelineStats()
    t0 = perf_counter()
    columnar_lives, columnar_tables = build_operational_dataset(
        world, engine="columnar", cache=cache, stats=columnar_stats,
        **ref_window,
    )
    columnar_seconds = perf_counter() - t0
    assert columnar_tables == object_tables
    assert columnar_lives == object_lives
    assert list(columnar_lives) == list(object_lives)

    warm_stats = PipelineStats()
    t0 = perf_counter()
    warm_lives, _ = build_operational_dataset(
        world, engine="object", cache=cache, stats=warm_stats, **ref_window,
    )
    warm_seconds = perf_counter() - t0
    assert cache.hits == 1
    assert [s.name for s in warm_stats.stages] == [
        "cache:lookup", "bgp:segment",
    ]
    assert warm_lives == object_lives

    columnar_speedup = (
        _activity_stage_seconds(object_stats)
        / _activity_stage_seconds(columnar_stats)
    )
    assert columnar_speedup >= 3, (
        f"columnar stream+visibility only {columnar_speedup:.1f}x faster "
        f"than the object stream"
    )

    cache_speedup = columnar_seconds / warm_seconds
    lines = [
        f"window: {ref_days} days, {len(columnar_tables)} active ASNs, "
        f"host CPUs: {os.cpu_count()}",
        "",
        columnar_stats.compare(
            object_stats, label=f"columnar {ref_days}d",
            baseline_label=f"object {ref_days}d",
        ),
        "",
        f"{'object stream':<28} {object_seconds:>9.3f}s",
        f"{'columnar (cold, stores)':<28} {columnar_seconds:>9.3f}s",
        f"{'warm activity-table hit':<28} {warm_seconds:>9.3f}s",
        f"{'stage speedup (col/obj)':<28} {columnar_speedup:>9.2f}x",
        f"{'cold/warm cache speedup':<28} {cache_speedup:>9.2f}x",
    ]
    record_result("bgp_activity", "\n".join(lines))


def test_cache_verification_overhead(record_result, tmp_path):
    """Sha256 verification and ledger accounting each cost <= ~5% warm.

    The ISSUE 3 acceptance bound: checksum verification must be cheap
    enough to leave on by default.  Same world, same window, same warm
    activity-table entry — timed under ``verify="off"`` and
    ``verify="sha256"``, min-of-7 to shed scheduler noise.  The same
    bound prices the dataflow ledger: the warm path re-timed under
    :func:`ledger_disabled` must be within 5% of the default
    accounting-on run, or the conservation counters are too hot to
    leave enabled.
    """
    world = WorldSimulator(tiny(seed=2021)).run()
    end = world.config.end_day
    start = end - 179
    window = dict(start=start, end=end)

    # one shared entry directory, populated once
    seed_cache = ArtifactCache(tmp_path, faults=None)
    build_operational_dataset(world, cache=seed_cache, **window)

    def warm_seconds(verify: str) -> float:
        cache = ArtifactCache(tmp_path, verify=verify, faults=None)
        best = float("inf")
        for _ in range(7):
            t0 = perf_counter()
            lives, _ = build_operational_dataset(
                world, cache=cache, **window
            )
            best = min(best, perf_counter() - t0)
            assert lives  # every iteration is a real warm hit
        assert cache.hits == 7
        assert cache.corrupt == 0
        return best

    off_t = warm_seconds("off")
    sha_t = warm_seconds("sha256")
    # the warm path still runs bgp:segment, the ledger's hottest
    # boundary on a cache hit — time it with accounting suppressed
    with ledger_disabled():
        bare_t = warm_seconds("off")

    # 5% relative, plus a 2ms absolute floor so the bound is meaningful
    # even when the whole warm hit is sub-millisecond
    assert sha_t <= off_t * 1.05 + 0.002, (
        f"sha256 verification overhead too high: {sha_t:.4f}s verified "
        f"vs {off_t:.4f}s unverified"
    )
    assert off_t <= bare_t * 1.05 + 0.002, (
        f"ledger accounting overhead too high: {off_t:.4f}s with the "
        f"ledger vs {bare_t:.4f}s without"
    )

    overhead = (sha_t / off_t - 1.0) * 100.0
    ledger_overhead = (off_t / bare_t - 1.0) * 100.0
    lines = [
        "warm activity-table hit, min of 7 runs",
        f"{'verify=off, no ledger':<28} {bare_t:>9.4f}s",
        f"{'verify=off':<28} {off_t:>9.4f}s",
        f"{'verify=sha256':<28} {sha_t:>9.4f}s",
        f"{'verification overhead':<28} {overhead:>8.2f}%",
        f"{'ledger overhead':<28} {ledger_overhead:>8.2f}%",
    ]
    record_result("cache_verification_overhead", "\n".join(lines))
