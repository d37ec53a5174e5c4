"""Tests for the same-runner A/B gate's verdict.

The gate script lives outside the package (``scripts/``), so it is
loaded here via an explicit file-location import.  The verdict is fed
synthetic result lines and a synthetic ``BENCHMARK.json`` document; no
benchmark runs.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

_AB_PATH = Path(__file__).parent.parent / "scripts" / "perf_ab.py"
_spec = importlib.util.spec_from_file_location("perf_ab", _AB_PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

BENCHMARK = {
    "workloads": [{"name": "pipeline"}],
    "end_to_end": [
        {"name": "op_p50_ms", "better": "lower", "bound": 0.25},
        {"name": "ops_per_s", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
    ],
}

BASE = {"op_p50_ms": 400.0, "ops_per_s": 2.0, "peak_rss_mb": 80.0}


def _records(head: dict, base: dict = BASE, **result) -> list:
    """Three runs per side, every run reporting the same values."""
    out = []
    for side, values in (("base", base), ("head", head)):
        for pair in range(3):
            out.append({
                "side": side,
                "workload": "pipeline",
                "pair": pair,
                "result": {
                    "correct": True,
                    "attempted": 10,
                    "failed": 0,
                    "metrics": {k: {"value": v} for k, v in values.items()},
                    **result,
                },
            })
    return out


def _failures(records: list) -> list:
    _rows, failures = ab.verdict(BENCHMARK, records)
    return failures


def test_no_change_passes():
    rows, failures = ab.verdict(BENCHMARK, _records(BASE))
    assert failures == []
    assert [row[1] for row in rows] == ["op_p50_ms", "ops_per_s", "peak_rss_mb"]
    assert all(row[-1] == "ok" for row in rows)


def test_lower_is_better_metric_past_its_bound_fails():
    failures = _failures(_records({**BASE, "op_p50_ms": 520.0}))
    assert len(failures) == 1
    assert "pipeline op_p50_ms" in failures[0]


def test_lower_is_better_metric_improving_passes():
    assert _failures(_records({**BASE, "op_p50_ms": 100.0})) == []


def test_throughput_drop_past_its_bound_fails():
    failures = _failures(_records({**BASE, "ops_per_s": 1.4}))
    assert len(failures) == 1
    assert "pipeline ops_per_s" in failures[0]


def test_throughput_rise_passes():
    assert _failures(_records({**BASE, "ops_per_s": 8.0})) == []


def test_rss_uses_its_own_tighter_bound():
    # +12.5%: inside the 25% timing bound, outside RSS's 10%
    failures = _failures(_records({**BASE, "peak_rss_mb": 90.0}))
    assert len(failures) == 1
    assert "pipeline peak_rss_mb" in failures[0]
    assert _failures(_records({**BASE, "peak_rss_mb": 87.0})) == []


def test_exactly_at_the_bound_passes():
    at_bound = {"op_p50_ms": 500.0, "ops_per_s": 1.5, "peak_rss_mb": 88.0}
    assert _failures(_records(at_bound)) == []


def test_median_ignores_one_outlier_run():
    records = _records(BASE)
    records[-1]["result"]["metrics"]["op_p50_ms"]["value"] = 4000.0
    assert _failures(records) == []


def test_incorrect_run_fails():
    failures = _failures(_records(BASE, correct=False))
    assert failures and all("correct=False" in f for f in failures)


def test_run_with_failed_operations_fails():
    records = _records(BASE)
    records[4]["result"]["failed"] = 2
    failures = _failures(records)
    assert failures == ["head pipeline pair 1: correct=True failed=2"]


def test_run_without_a_result_line_fails():
    records = _records(BASE)
    records[0]["result"] = None
    assert _failures(records) == ["base pipeline pair 0: no result line"]


def test_workload_missing_from_one_side_fails():
    records = [r for r in _records(BASE) if r["side"] == "head"]
    failures = _failures(records)
    assert len(failures) == 3
    assert all("no base results" in f for f in failures)


def test_metric_missing_from_one_side_fails():
    head = {k: v for k, v in BASE.items() if k != "peak_rss_mb"}
    failures = _failures(_records(head))
    assert failures == ["pipeline peak_rss_mb: no head results"]


def test_spread_is_median_and_interquartile_range():
    assert ab.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == (3.0, 2.0)
    assert ab.spread([7.0]) == (7.0, 0.0)


def test_pair_wins_are_counted_pair_by_pair():
    records = _records(BASE)
    head = [r for r in records if r["side"] == "head"]
    # pair 0: head faster and higher throughput; pair 1: tie; pair 2:
    # head slower and lower throughput
    head[0]["result"]["metrics"]["op_p50_ms"]["value"] = 300.0
    head[0]["result"]["metrics"]["ops_per_s"]["value"] = 3.0
    head[2]["result"]["metrics"]["op_p50_ms"]["value"] = 450.0
    head[2]["result"]["metrics"]["ops_per_s"]["value"] = 1.9
    rows, failures = ab.verdict(BENCHMARK, records)
    assert failures == []
    assert {row[1]: row[-2] for row in rows} == {
        "op_p50_ms": "1/3", "ops_per_s": "1/3", "peak_rss_mb": "0/3",
    }
    table = ab.render(rows)
    assert "head wins" in table.splitlines()[0]
    assert " 1/3  ok" in table


def test_pair_wins_skip_pairs_missing_a_side():
    records = _records({**BASE, "op_p50_ms": 300.0})
    records[1]["result"] = None  # base pair 1 crashed
    rows, _failures_ = ab.verdict(BENCHMARK, records)
    assert rows[0][1] == "op_p50_ms" and rows[0][-2] == "2/2"


LAYERED = {
    **BENCHMARK,
    "per_layer": [
        {"name": "simulation.run_ms", "unit": "ms", "better": "lower"},
        {"name": "restoration.restore_ms", "unit": "ms", "better": "lower"},
        {"name": "serve.http.handler_us", "unit": "us", "better": "lower"},
        {"name": "runtime.gc_collections", "unit": "count", "better": "lower"},
        {"name": "serve.publish_bytes", "unit": "bytes", "better": "lower"},
    ],
}

LAYERS_BASE = {
    "simulation.run_ms": 220.0,
    "restoration.restore_ms": 190.0,
    "serve.http.handler_us": 100.0,
    "runtime.gc_collections": 200.0,
    "serve.publish_bytes": 0.0,
}


def _traced(head: dict, base: dict = LAYERS_BASE, workload: str = "pipeline") -> list:
    """Three traced runs per side, each reporting per-layer metrics."""
    return [
        {
            "side": side,
            "workload": workload,
            "pair": pair,
            "trace": 1,
            "result": {"metrics": {k: {"value": v} for k, v in values.items()}},
        }
        for side, values in (("base", base), ("head", head))
        for pair in range(3)
    ]


def test_layer_table_puts_the_moved_layer_first():
    # a 0.3 s busy loop in restore: 300 ms more there, a few ms of
    # drift elsewhere, and large moves in units that are not time
    head = {
        "simulation.run_ms": 224.0,
        "restoration.restore_ms": 490.0,
        "serve.http.handler_us": 2000.0,
        "runtime.gc_collections": 900.0,
        "serve.publish_bytes": 5000.0,
    }
    rows = ab.layer_table(LAYERED, _traced(head), "pipeline")
    assert [row[0] for row in rows] == [
        "restoration.restore_ms",
        "simulation.run_ms",
        "serve.http.handler_us",
        "serve.publish_bytes",
        "runtime.gc_collections",
    ]
    layer, unit, base, moved, change = rows[0]
    assert (unit, base, moved, change) == ("ms", 190.0, 490.0, 300.0)
    table = ab.render_layers("pipeline", rows)
    assert table.splitlines()[2].startswith("restoration.restore_ms")


def test_layer_table_uses_medians_and_skips_crashed_runs():
    records = _traced(LAYERS_BASE)
    records[3]["result"]["metrics"]["simulation.run_ms"]["value"] = 9000.0
    records[4]["result"] = None
    rows = ab.layer_table(LAYERED, records, "pipeline")
    # head keeps runs 3 (9000) and 5 (220): their median is the mean
    assert dict((row[0], row[3]) for row in rows)["simulation.run_ms"] == 4610.0
    assert all(row[2] == LAYERS_BASE[row[0]] for row in rows)


def test_layer_table_reads_one_workload_and_needs_both_sides():
    records = _traced(LAYERS_BASE) + _traced(
        {**LAYERS_BASE, "simulation.run_ms": 1.0}, workload="store-build"
    )
    rows = ab.layer_table(LAYERED, records, "pipeline")
    assert all(change == 0.0 for *_rest, change in rows)
    # serve.publish_bytes reads 0 on both sides: a layer pipeline never reaches
    assert "serve.publish_bytes" not in [row[0] for row in rows]
    assert len(rows) == len(LAYERED["per_layer"]) - 1
    only_head = [r for r in records if r["side"] == "head"]
    assert ab.layer_table(LAYERED, only_head, "pipeline") == []


def test_moved_workloads_are_failures_and_half_bound_moves():
    bench = {**BENCHMARK, "workloads": [{"name": "pipeline"}, {"name": "store-build"}]}

    def records(workload, head):
        return [{**r, "workload": workload} for r in _records(head)]

    rows, _ = ab.verdict(bench, records("pipeline", {**BASE, "op_p50_ms": 440.0})
                         + records("store-build", BASE))
    # +10% is inside half the 25% bound: nothing to trace
    assert ab.moved_workloads(bench, rows) == []
    rows, _ = ab.verdict(bench, records("pipeline", {**BASE, "op_p50_ms": 260.0})
                         + records("store-build", {**BASE, "peak_rss_mb": 100.0}))
    # -35% (a gain) and +25% RSS (a failure) both get traced
    assert ab.moved_workloads(bench, rows) == ["pipeline", "store-build"]


def test_both_trees_are_compiled_before_any_run(monkeypatch, tmp_path):
    """A fresh base worktree has no bytecode; the gate compiles both
    trees once, before the first pair, so set-up compares like with
    like."""
    import json
    import subprocess

    calls = []
    line = json.dumps({
        "correct": True, "attempted": 1, "failed": 0,
        "metrics": {k: {"value": v} for k, v in BASE.items()},
    })

    def fake_run(command, cwd=None, **kwargs):
        calls.append((list(command), Path(cwd)))
        return subprocess.CompletedProcess(command, 0, stdout=line + "\n")

    monkeypatch.setattr(ab, "git", lambda *args: "0" * 40)
    monkeypatch.setattr(ab, "RESULTS", tmp_path / "ab-results.jsonl")
    monkeypatch.setattr(ab.subprocess, "run", fake_run)
    monkeypatch.setattr(ab, "PAIRS", 2)
    ab.main(["HEAD"])

    compiles = [i for i, (command, _cwd) in enumerate(calls)
                if command[1:4] == ["-m", "compileall", "-q"]]
    runs = [i for i, (command, _cwd) in enumerate(calls)
            if "--workload" in command]
    assert len(compiles) == 2
    # the two compiled trees are the two trees every run uses
    compiled = {calls[i][1] for i in compiles}
    assert ab.ROOT in compiled and len(compiled) == 2
    assert {calls[i][1] for i in runs} == compiled
    assert runs and max(compiles) < min(runs)
    for i in compiles:
        assert calls[i][0][-2:] == ["src", "perfbench"]
