"""Tests of the benchmark's own harness.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from harness import SpeedProbe, percentile, run_forked  # noqa: E402
from run import END_TO_END_UNITS, PER_LAYER_UNITS, WORKLOADS, window_metrics  # noqa: E402
from serving import LoopReport  # noqa: E402
from tracing import Tracer, self_times, self_times_by_op  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- smoke runs ----------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = _result(_bench(
        "--workload", workload, "--seed", "14", "--seconds", "1", "--trace", "0", "--smoke",
    ))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END_UNITS
    for name in ("op_p50_ms", "ops_per_s", "peak_rss_mb"):
        assert result["metrics"][name]["value"] > 0, name


def test_traced_smoke_run_reports_every_per_layer_metric():
    result = _result(_bench(
        "--workload", "pipeline", "--seed", "14", "--seconds", "1", "--trace", "1", "--smoke",
    ))
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == PER_LAYER_UNITS
    assert metrics["simulation.run_ms"]["value"] > 0
    assert metrics["restoration.restore_ms"]["value"] > 0
    # the batch pipeline never reaches message-level routing
    assert metrics["bgp.routing_calls"]["value"] == 0


def test_other_seed_checks_ops_against_the_first():
    result = _result(_bench(
        "--workload", "pipeline", "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke",
    ))
    assert result["correct"] is True and result["attempted"] == 2


def test_benchmark_json_lists_the_metrics_a_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench(
        "--workload", "pipeline", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- forked ops ----------------------------------------------------------------


def _raises():
    raise ValueError("boom")


def _exits_nonzero():
    os._exit(3)


def _returns():
    return {"answer": 42}


def test_forked_op_that_raises_is_a_failed_op():
    result = run_forked(_raises)
    assert not result.ok
    assert "ValueError: boom" in result.error


def test_forked_op_that_exits_nonzero_is_a_failed_op():
    result = run_forked(_exits_nonzero)
    assert not result.ok
    assert "code 3" in result.error


def test_forked_op_that_hangs_is_killed_and_failed():
    result = run_forked(lambda: __import__("time").sleep(30), timeout=0.5)
    assert not result.ok
    assert "did not finish" in result.error


def test_forked_op_returns_its_payload_and_peak_rss():
    result = run_forked(_returns)
    assert result.ok and result.payload == {"answer": 42}
    assert result.maxrss_kb > 0


# -- span arithmetic -----------------------------------------------------------


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_is_span_minus_its_direct_children():
    clock = _Clock()
    tracer = Tracer(clock=clock)
    root = tracer.begin("op")            # 0 .. 10
    clock.now = 1.0
    outer = tracer.begin("lifetimes.op")  # 1 .. 7
    clock.now = 2.0
    inner = tracer.begin("bgp.routing")   # 2 .. 5
    clock.now = 5.0
    tracer.end(inner)
    clock.now = 7.0
    tracer.end(outer)
    clock.now = 8.0
    gc_span = tracer.begin("runtime.gc")  # 8 .. 9
    clock.now = 9.0
    tracer.end(gc_span)
    clock.now = 10.0
    tracer.end(root)

    times = self_times(tracer.spans)
    assert times == {"op": 3.0, "lifetimes.op": 3.0, "bgp.routing": 3.0, "runtime.gc": 1.0}
    # self times of one op add up to its wall time exactly
    assert sum(times.values()) == 10.0


def test_self_times_are_kept_apart_per_op():
    clock = _Clock()
    tracer = Tracer(clock=clock)
    for op, length in ((0, 2.0), (1, 5.0)):
        tracer.op = op
        span = tracer.begin("simulation.run")
        clock.now += length
        tracer.end(span)
    assert self_times_by_op(tracer.spans) == {
        0: {"simulation.run": 2.0}, 1: {"simulation.run": 5.0},
    }


def test_ending_a_span_out_of_order_is_an_error():
    tracer = Tracer(clock=_Clock())
    first = tracer.begin("a")
    tracer.begin("b")
    with pytest.raises(RuntimeError):
        tracer.end(first)


def test_wrap_counts_calls_and_rows():
    tracer = Tracer(clock=_Clock())
    lookup = tracer.wrap("serve.index.lookup", lambda n: list(range(n)), rows=len)
    lookup(3)
    lookup(4)
    assert tracer.counts["serve.index.lookup.calls"] == 2
    assert tracer.counts["serve.index.lookup.rows"] == 7


# -- statistics ----------------------------------------------------------------


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 51
    assert percentile(values, 0.99) == 99
    assert percentile([], 0.5) == 0.0


def test_slowdown_is_mean_probe_step_over_the_reference():
    probe = SpeedProbe(0)
    walk, spin = SpeedProbe.REFERENCE_WALK_S, SpeedProbe.REFERENCE_SPIN_S
    probe.samples = [(0.0, walk, spin), (1.0, 2 * walk, 2 * spin), (2.0, 3 * walk, 3 * spin)]
    assert probe.slowdown(0.5, 2.5) == pytest.approx(2.5)
    assert probe.slowdown(0.0, 2.0) == pytest.approx(2.0)
    # an interval between samples takes the nearest ones
    assert probe.slowdown(10.0, 10.1) == pytest.approx(2.0)
    assert SpeedProbe(0).slowdown(0.0, 1.0) == 1.0


def test_slowdown_is_the_geometric_mean_of_walk_and_loop():
    probe = SpeedProbe(0)
    probe.samples = [(0.0, 4 * SpeedProbe.REFERENCE_WALK_S, SpeedProbe.REFERENCE_SPIN_S)]
    assert probe.slowdown(0.0, 1.0) == pytest.approx(2.0)


def test_window_metrics_normalize_each_window_by_its_host_speed():
    probe = SpeedProbe(0)
    walk, spin = SpeedProbe.REFERENCE_WALK_S, SpeedProbe.REFERENCE_SPIN_S
    # the host runs at half speed for 4 s, then at full speed for 2 s
    probe.samples = [
        (t / 10, *((2 * walk, 2 * spin) if t < 40 else (walk, spin))) for t in range(61)
    ]
    loop = LoopReport()
    at = 0.0
    for i in range(4000):
        latency = 0.002 if i < 2000 else 0.001
        loop.starts.append(at)
        loop.latencies_s.append(latency)
        at += latency
    loop.interval = (0.0, at)
    metrics = window_metrics(probe, loop)
    assert metrics["op_p50_ms"] == pytest.approx(1.0, rel=0.05)
    assert metrics["op_p99_ms"] == pytest.approx(1.0, rel=0.05)
    assert metrics["ops_per_s"] == pytest.approx(1000, rel=0.05)
