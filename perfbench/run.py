"""The repository's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 10 --trace 0

Prints a report line (host facts, checks, per-op detail) and, as the
last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` installs the span wrappers of
:mod:`tracing` and reports the per-layer metrics instead.  Exits
non-zero, printing no result, when the program under test is missing.
See ``RATIONALE.md`` for why the workloads are what they are.
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import json
import os
import shutil
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from harness import (  # noqa: E402 - after the path insert
    calibrate_ms,
    host_facts,
    maxrss_mb,
    median,
    percentile,
    run_forked,
    SpeedProbe,
)

WORKLOADS = ("pipeline", "store-build", "query-point", "query-range")

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Ops a ``--smoke`` batch run makes (a traced run alternates, so two).
SMOKE_OPS = 2

#: Query metrics are taken over windows of at least this many seconds
#: and requests.
WINDOW_S = 1.0
WINDOW_REQUESTS = 1000

#: Span name → per-layer metric of its per-op self time, in ms.
SPAN_METRICS = {
    "simulation.run": "simulation.run_ms",
    "rir.archive": "rir.archive_ms",
    "restoration.restore": "restoration.restore_ms",
    "lifetimes.admin": "lifetimes.admin_ms",
    "lifetimes.op": "lifetimes.op_ms",
    "core.classify": "core.classify_ms",
    "bgp.routing": "bgp.routing_ms",
    "bgp.activity": "bgp.activity_ms",
    "serve.assemble": "serve.assemble_ms",
    "serve.publish": "serve.publish_ms",
    "serve.index_open": "serve.index_open_ms",
    "runtime.gc": "runtime.gc_ms",
}

#: Every per-layer metric with its unit; a traced run prints all of
#: them, zero where its workload does not reach the layer.
PER_LAYER_UNITS = {
    **{metric: "ms" for metric in SPAN_METRICS.values()},
    "bgp.routing_calls": "count",
    "serve.publish_bytes": "bytes",
    "serve.index.lookup_us": "us",
    "serve.index.rows_per_request": "count",
    "serve.http.handler_us": "us",
    "serve.http.encode_us": "us",
    "serve.telemetry.record_us": "us",
    "serve.http.transport_us": "us",
    "runtime.gc_collections": "count",
    "host.calibration_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.unattributed_ms": "ms",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="one set-up and a few ops: checks the harness, not the speed",
    )
    return parser.parse_args(argv)


def make_workload(name: str, seed: int, workdir: Path, seconds: float):
    if name == "pipeline":
        from batch import PipelineWorkload
        return PipelineWorkload(seed, workdir)
    if name == "store-build":
        from batch import StoreBuildWorkload
        return StoreBuildWorkload(seed, workdir)
    from serving import QueryPointWorkload, QueryRangeWorkload

    cls = QueryPointWorkload if name == "query-point" else QueryRangeWorkload
    return cls(seed, workdir, seconds)


def _timed_setup(workload) -> List[float]:
    started = perf_counter()
    workload.setup()
    return [started, perf_counter()]


def _setup_in_child(workload) -> Dict[str, Any]:
    interval = _timed_setup(workload)
    workload.teardown()
    return {"interval": interval}


def measure_setup(workload, repeats: int) -> List[List[float]]:
    """Set up ``repeats`` times from the same fresh state; keep the last.

    The first ``repeats - 1`` set-ups run in forked children of this
    still-unprepared process; the last runs here and is kept.  Returns
    each set-up's ``[start, end]``.
    """
    intervals: List[List[float]] = []
    for _ in range(repeats - 1):
        result = run_forked(functools.partial(_setup_in_child, workload))
        if not result.ok:
            raise RuntimeError(f"set-up failed: {result.error}")
        intervals.append(result.payload["interval"])
    intervals.append(_timed_setup(workload))
    return intervals


def normalized(probe, start: float, end: float) -> float:
    """Seconds from ``start`` to ``end`` on the reference host."""
    return (end - start) / probe.slowdown(start, end)


def trace_file(workload: str, seed: int) -> Path:
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{workload}-seed{seed}.jsonl"
    path.unlink(missing_ok=True)
    return path


# -- batch workloads ---------------------------------------------------------


def _op_in_child(workload, op: int, trace_path) -> Dict[str, Any]:
    if trace_path is None:
        return workload.op(op)
    from tracing import Tracer, install, self_times

    tracer = Tracer()
    tracer.op = op
    install(tracer)
    untrack_gc = tracer.track_gc()
    root = tracer.begin("op")
    payload = workload.op(op)
    tracer.end(root)
    untrack_gc()
    tracer.write_jsonl(trace_path, process="op")
    payload["self_ms"] = {name: s * 1e3 for name, s in self_times(tracer.spans).items()}
    payload["counts"] = dict(tracer.counts)
    return payload


def run_batch(
    workload, args: argparse.Namespace, probe: SpeedProbe
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    trace_path = trace_file(workload.name, args.seed) if args.trace else None
    if args.trace or args.smoke:
        workload.setup()
        setups: List[List[float]] = []
    else:
        setups = measure_setup(workload, SETUP_REPEATS)

    ops: List[Dict[str, Any]] = []
    min_ops = SMOKE_OPS if args.smoke else 2 if args.trace else 1
    started = perf_counter()
    while len(ops) < min_ops or (
        not args.smoke and perf_counter() - started < args.seconds
    ):
        number = len(ops)
        # a traced run alternates untraced and traced ops, so host drift
        # lands on both halves of the tracing-overhead difference alike
        traced = args.trace and number % 2 == 1
        result = run_forked(functools.partial(
            _op_in_child, workload, number, trace_path if traced else None
        ))
        workload.cleanup(number)
        problem = result.error if not result.ok else workload.check(
            result.payload["output"]
        )
        ops.append({
            "op": number,
            "traced": traced,
            "ok": problem is None,
            "error": problem,
            "wall_s": result.payload.get("wall_s"),
            "interval": result.payload.get("interval"),
            "gc_collections": result.payload.get("gc_collections"),
            "gc_s": result.payload.get("gc_s"),
            "maxrss_mb": maxrss_mb(result.maxrss_kb),
            "self_ms": result.payload.get("self_ms"),
            "counts": result.payload.get("counts"),
            "output": result.payload.get("output"),
        })
    ended = perf_counter()
    probe.stop()

    good = [op for op in ops if op["ok"]]
    for op in good:
        op["normalized_s"] = normalized(probe, *op["interval"])
    plain = sorted(op["normalized_s"] * 1e3 for op in good if not op["traced"])
    metrics: Dict[str, float] = {
        "setup_s": median([normalized(probe, *interval) for interval in setups]),
        "op_p50_ms": median(plain),
        "op_p99_ms": percentile(plain, 0.99),
        "ops_per_s": len(good) / normalized(probe, started, ended),
        "peak_rss_mb": median([op["maxrss_mb"] for op in good]),
    }
    if args.trace:
        traced_ops = [op for op in good if op["traced"]]
        traced_walls = sorted(op["normalized_s"] * 1e3 for op in traced_ops)
        layer = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        for span, metric in SPAN_METRICS.items():
            layer[metric] = median([op["self_ms"].get(span, 0.0) for op in traced_ops])
        layer["bgp.routing_calls"] = median(
            [op["counts"].get("bgp.routing.calls", 0) for op in traced_ops]
        )
        layer["runtime.gc_collections"] = median(
            [op["counts"].get("runtime.gc.collections", 0) for op in traced_ops]
        )
        layer["serve.publish_bytes"] = median(
            [(op["output"] or {}).get("bytes", 0) for op in traced_ops]
        )
        layer["trace.overhead_ms"] = median(traced_walls) - metrics["op_p50_ms"]
        layer["trace.unattributed_ms"] = median(
            [op["self_ms"].get("op", 0.0) for op in traced_ops]
        )
        metrics = layer
    collections = {json.dumps(op["gc_collections"]) for op in good if not op["traced"]}
    details = {
        "ops": [
            {k: v for k, v in op.items() if k not in ("output",)} for op in ops
        ],
        "setup_raw_s": [end - start for start, end in setups],
        "ops_per_run": len(ops),
        "timed_s": ended - started,
        "gc_collections_identical": len(collections) <= 1,
        "attempted": len(ops),
        "failed": len(ops) - len(good),
        "problems": [op["error"] for op in ops if op["error"]],
    }
    return metrics, details


# -- query workloads ---------------------------------------------------------


async def _phase(workload, server, seconds: float) -> Dict[str, Any]:
    from serving import closed_loop, data_requests, sample_check, sample_indices, scrape
    from serving import settled_scrape

    before = await scrape(server.port)
    loop = await closed_loop(server.port, workload.paths, seconds, workload.ok_status)
    base = data_requests(before)
    after = await settled_scrape(server.port, base + len(loop.sent))
    counted = data_requests(after) - base
    sample = [workload.paths[i] for i in sample_indices(loop.sent)]
    problems = list(loop.errors)
    if loop.bad_status:
        problems.append(f"{loop.bad_status} responses with an unplanned status")
    if counted != len(loop.sent):
        problems.append(f"server counted {counted} data requests, client sent {len(loop.sent)}")
    mismatches = await sample_check(server.port, workload.index, sample)
    problems.extend(mismatches)
    return {
        "loop": loop,
        "before": before,
        "after": after,
        "sampled": len(sample),
        "failed": loop.bad_status + len(loop.errors) + len(mismatches)
        + (counted != len(loop.sent)),
        "problems": problems,
    }


def window_metrics(probe, loop) -> Dict[str, float]:
    """Latency and throughput of a closed-loop phase on the reference host.

    Requests, in the order they started, are cut into windows of at
    least :data:`WINDOW_S` seconds and :data:`WINDOW_REQUESTS` requests
    (so a window's p99 has ten requests beyond it), and each window is
    normalized by the host speed over it.  The p50 is over every
    request; the p99 and the rate are medians over the complete
    windows, so the host's slowest seconds set neither.
    """
    windows: List[Tuple[float, float, List[float]]] = []
    first = 0
    for i, at in enumerate(loop.starts):
        if at - loop.starts[first] >= WINDOW_S and i - first >= WINDOW_REQUESTS:
            windows.append((loop.starts[first], at, loop.latencies_s[first:i]))
            first = i
    tail = (loop.starts[first], loop.interval[1], loop.latencies_s[first:])
    complete = len(windows) or 1
    every: List[float] = []
    p99s: List[float] = []
    rates: List[float] = []
    for number, (start, end, latencies) in enumerate(windows + [tail]):
        if not latencies:
            continue
        slowdown = probe.slowdown(start, end)
        scaled = sorted(seconds * 1e3 / slowdown for seconds in latencies)
        every.extend(scaled)
        if number < complete:
            p99s.append(percentile(scaled, 0.99))
            rates.append(len(scaled) * slowdown / (end - start))
    return {
        "op_p50_ms": median(sorted(every)),
        "op_p99_ms": median(p99s),
        "ops_per_s": median(rates),
    }


def _server_means(phase: Dict[str, Any]) -> Tuple[float, float]:
    """Mean handler time and mean data-route request time, in µs."""
    from serving import histogram_total

    before, after = phase["before"], phase["after"]
    h1, n1 = histogram_total(after, "repro_serve_http_latency_us")
    h0, n0 = histogram_total(before, "repro_serve_http_latency_us")
    r1, m1 = histogram_total(after, "repro_serve_http_request_us", data_only=True)
    r0, m0 = histogram_total(before, "repro_serve_http_request_us", data_only=True)
    return (h1 - h0) / max(1, n1 - n0), (r1 - r0) / max(1, m1 - m0)


def run_query(
    workload, args: argparse.Namespace, probe: SpeedProbe
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    from batch import store_bytes
    from serving import ServerProcess

    seconds = min(args.seconds, 1.0) if args.smoke else args.seconds
    traced_server = None
    if args.trace:
        from tracing import Tracer, install, self_times

        tracer = Tracer()
        restore = install(tracer)
        untrack_gc = tracer.track_gc()
        root = tracer.begin("setup")
        workload.build()
        tracer.end(root)
        untrack_gc()
        restore()
        setup_self = self_times(tracer.spans)
        setup_counts = dict(tracer.counts)
        spans_path = trace_file(workload.name, args.seed)
        tracer.write_jsonl(spans_path, process="setup")
        workload.server = ServerProcess(workload.index)
        workload.server.start()
        # wrappers go in before the traced server forks, and come out
        # of this process again so the client loop runs unwrapped
        restore = install(tracer)
        server_trace = workload.workdir / "server-trace.json"
        traced_server = ServerProcess(
            workload.index, tracer=tracer, spans_path=spans_path, summary_path=server_trace
        )
        try:
            traced_server.start()
        finally:
            restore()
        setups: List[List[float]] = []
        seconds = seconds / 2
    elif args.smoke:
        workload.setup()
        setups = []
    else:
        setups = measure_setup(workload, SETUP_REPEATS)

    try:
        plain = asyncio.run(_phase(workload, workload.server, seconds))
        traced = (
            asyncio.run(_phase(workload, traced_server, seconds))
            if traced_server is not None else None
        )
    finally:
        workload.server.stop()
        if traced_server is not None:
            traced_server.stop()
        probe.stop()

    loop = plain["loop"]
    metrics: Dict[str, float] = {
        "setup_s": median([normalized(probe, *interval) for interval in setups]),
        **window_metrics(probe, loop),
        "peak_rss_mb": maxrss_mb(workload.server.maxrss_kb),
    }
    phases = [plain] + ([traced] if traced is not None else [])
    if traced is not None:
        summary = json.loads(server_trace.read_text(encoding="utf-8"))
        self_s, counts = summary["self_s"], summary["counts"]
        layer = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        requests = max(1, len(traced["loop"].sent))
        lookups = max(1, counts.get("serve.index.lookup.calls", 0))
        for span, metric in SPAN_METRICS.items():
            layer[metric] = setup_self.get(span, 0.0) * 1e3
        layer["runtime.gc_ms"] = self_s.get("runtime.gc", 0.0) * 1e3 * 1000 / requests
        layer["runtime.gc_collections"] = (
            counts.get("runtime.gc.collections", 0) * 1000 / requests
        )
        layer["bgp.routing_calls"] = setup_counts.get("bgp.routing.calls", 0)
        layer["serve.publish_bytes"] = store_bytes(workload.store_dir)
        layer["serve.index.lookup_us"] = self_s.get("serve.index.lookup", 0.0) * 1e6 / lookups
        layer["serve.index.rows_per_request"] = (
            counts.get("serve.index.lookup.rows", 0) / lookups
        )
        handler_us, _request_us = _server_means(traced)
        layer["serve.http.handler_us"] = handler_us
        layer["serve.http.encode_us"] = (
            handler_us - self_s.get("serve.index.lookup", 0.0) * 1e6 / requests
        )
        layer["serve.telemetry.record_us"] = (
            self_s.get("serve.telemetry.record", 0.0) * 1e6
            / max(1, counts.get("serve.telemetry.record.calls", 0))
        )
        _handler_us, request_us = _server_means(plain)
        client_mean_us = sum(loop.latencies_s) * 1e6 / max(1, len(loop.latencies_s))
        layer["serve.http.transport_us"] = client_mean_us - request_us
        layer["trace.overhead_ms"] = (
            window_metrics(probe, traced["loop"])["op_p50_ms"] - metrics["op_p50_ms"]
        )
        layer["trace.unattributed_ms"] = setup_self.get("setup", 0.0) * 1e3
        metrics = layer
    attempted = sum(len(p["loop"].sent) + p["sampled"] for p in phases)
    details = {
        "setup_raw_s": [end - start for start, end in setups],
        "ops_per_run": len(loop.sent),
        "timed_s": loop.interval[1] - loop.interval[0],
        "raw_op_p50_ms": median(sorted(s * 1e3 for s in loop.latencies_s)),
        "slowdown": probe.slowdown(*loop.interval),
        "attempted": max(1, attempted),
        "failed": sum(p["failed"] for p in phases),
        "problems": [problem for p in phases for problem in p["problems"]][:20],
    }
    return metrics, details


# -- entry point -------------------------------------------------------------


def run(args: argparse.Namespace, workdir: Path) -> Dict[str, Any]:
    workload = make_workload(args.workload, args.seed, workdir, args.seconds)
    batch = args.workload in ("pipeline", "store-build")
    # Every process of the run (ops, server, client, probe) shares one
    # CPU: wake-ups across CPUs of a shared VM are its noisiest cost,
    # and the probe then samples the CPU the measured work ran on.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    calibration = [calibrate_ms()]
    probe = SpeedProbe(cpu).start()
    try:
        if batch:
            metrics, details = run_batch(workload, args, probe)
        else:
            metrics, details = run_query(workload, args, probe)
    finally:
        probe.stop()
        workload.teardown()
    calibration.append(calibrate_ms())
    if args.trace:
        metrics["host.calibration_ms"] = median(calibration)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_facts(),
        "calibration_ms": calibration,
        **workload.facts(),
        **details,
    }
    result = {
        "correct": details["failed"] == 0,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    return {"report": report, "result": result}


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {src}", file=sys.stderr)
        return 2
    # the program's numpy must not start a thread pool that forked ops inherit
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    sys.path.insert(0, str(src))
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        outcome = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(outcome["report"], sort_keys=True, default=str))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
