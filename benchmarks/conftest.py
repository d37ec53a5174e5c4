"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper from the
same bench-scale world (built once per session) and

* times the analysis with pytest-benchmark,
* asserts the paper's qualitative shape (who wins, orderings, knees),
* writes the regenerated rows/series to ``benchmarks/results/`` so they
  can be compared against the paper side by side (see EXPERIMENTS.md).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.runtime import ArtifactCache, reset_metrics, write_json_atomic
from repro.simulation import DatasetBundle, bench, build_datasets

RESULTS_DIR = Path(__file__).parent / "results"

#: Machine-readable session metrics (stage wall histograms, cache and
#: ledger counters).  The perf-regression gate parses this file —
#: never the human-oriented ``.txt`` tables.
METRICS_SNAPSHOT = RESULTS_DIR / "metrics_snapshot.json"

#: Content-addressed bundle cache shared across benchmark sessions.
#: The key covers the full config + pipeline version, so a config or
#: pipeline change rebuilds automatically; repeated sessions load the
#: pickled bundle instead of re-simulating the world.  Stores are
#: atomic (temp file + rename), so the fixture is safe under
#: pytest-xdist: racing workers each build at worst once and never
#: observe a torn artifact.
CACHE_DIR = Path(__file__).parent / ".cache"


def pytest_sessionstart(session):
    """Clear the process-global registry up front so a warm pytest
    process never double-counts into the session snapshot."""
    session.config._repro_metrics = reset_metrics()


def pytest_sessionfinish(session, exitstatus):
    """Snapshot the whole session's metrics, even on failure.

    A ``sessionfinish`` hook (unlike the fixture teardown this
    replaces) also runs when the session aborts part-way — e.g. under
    ``-x`` — so a partially-failed session still emits a snapshot
    rather than leaving a stale one from the previous run on disk.
    The snapshot carries the session verdict; the perf gate refuses to
    compare timings from an ``incomplete`` session, whose stage
    histograms cover only the benchmarks that got to run.
    """
    metrics = getattr(session.config, "_repro_metrics", None)
    if metrics is None:  # sessionstart never ran (collection-time crash)
        return
    snapshot = metrics.snapshot()
    snapshot["session"] = {
        "exitstatus": int(exitstatus),
        "incomplete": int(exitstatus) != 0,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    write_json_atomic(METRICS_SNAPSHOT, snapshot)


@pytest.fixture(scope="session")
def bundle() -> DatasetBundle:
    """The bench-scale dataset bundle (warm sessions load it from cache)."""
    return build_datasets(bench(seed=2021), cache=ArtifactCache(CACHE_DIR))


@pytest.fixture(scope="session")
def record_result():
    """Write a regenerated table/figure to benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _record(name: str, text: str) -> Path:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text.rstrip() + "\n", encoding="utf-8")
        return path

    return _record


def fmt_table(headers, rows) -> str:
    """Render rows as a fixed-width text table."""
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    def line(values):
        return "  ".join(str(v).rjust(w) for v, w in zip(values, widths))
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(r) for r in rows)
    return "\n".join(out)
