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

from repro.runtime import ArtifactCache
from repro.simulation import DatasetBundle, bench, build_datasets

RESULTS_DIR = Path(__file__).parent / "results"

#: Content-addressed bundle cache shared across benchmark sessions.
#: The key covers the full config + pipeline version, so a config or
#: pipeline change rebuilds automatically; repeated sessions load the
#: pickled bundle instead of re-simulating the world.  Stores are
#: atomic (temp file + rename), so the fixture is safe under
#: pytest-xdist: racing workers each build at worst once and never
#: observe a torn artifact.
CACHE_DIR = Path(__file__).parent / ".cache"


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
