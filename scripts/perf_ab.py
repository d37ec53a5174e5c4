#!/usr/bin/env python3
"""Same-runner A/B performance gate: the working tree against a git ref.

    python scripts/perf_ab.py BASE_REF

Checks ``BASE_REF`` out into a temporary git worktree, byte-compiles
both trees' ``src`` and ``perfbench`` once (a fresh worktree has no
``__pycache__``, and set-up would otherwise pay the base's compiles
alone), then runs every workload ``BENCHMARK.json`` names, untraced,
for that file's
``run_seconds``: :data:`PAIRS` pairs per workload, each tree under its
own ``perfbench/run.py``, with the tree that goes first alternating
from pair to pair so host drift lands on both sides alike.

The gate fails when any run reports ``correct: false`` or failed
operations, or when, for any workload and any ``end_to_end`` metric,
the working tree's median is worse than the base's by more than that
metric's ``bound`` (relative, in the metric's ``better`` direction).
Both sides run on the same host in the same job, so no absolute
timing is ever committed.  It prints each side's medians and
interquartile spreads, the pairs in which the working tree did
better (ties count for neither side; the verdict ignores them), and
appends every raw result line to ``.perfbench-out/ab-results.jsonl``
in the working tree.

When a row fails, or moves by more than half its bound in either
direction, the gate then says which layer moved: it runs
:data:`TRACED_PAIRS` more alternating pairs of that workload only,
traced (``--trace 1``), and prints each ``per_layer`` metric's base
and head medians, time layers first, each group sorted by absolute
change.  The traced runs change neither the verdict nor the exit
status; a run whose every row stays within half its bound runs none.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".perfbench-out" / "ab-results.jsonl"

#: Seed every run uses; both sides measure the same pinned scenario.
SEED = 14

#: Runs per side and workload.
PAIRS = 5

#: Traced runs per side for each workload that failed or moved.
TRACED_PAIRS = 3

#: Per-layer units that are durations, as milliseconds per unit.
TIME_UNITS = {"ms": 1.0, "us": 1e-3}

SIDES = ("base", "head")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def compile_trees(trees: Dict[str, Path]) -> None:
    """Byte-compile each tree's sources, so neither side's runs pay
    for compiling what the other side's runs load from bytecode."""
    for side in SIDES:
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
            cwd=trees[side], check=True, stdout=subprocess.DEVNULL,
        )


def run_once(
    tree: Path, command: List[str], workload: str, seconds: float, trace: int = 0
) -> Optional[dict]:
    """One perfbench run in ``tree``; its result line, or None."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def spread(values: List[float]) -> Tuple[float, float]:
    """Median and interquartile range."""
    if len(values) < 2:
        return values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q3 - q1


def verdict(benchmark: dict, records: List[dict]) -> Tuple[List[tuple], List[str]]:
    """Table rows and failures (none when the gate passes).

    ``records`` are the JSONL lines: ``side``, ``workload``, ``pair``
    and ``result`` (the run's parsed result line, None if it crashed).
    """
    failures: List[str] = []
    values: Dict[Tuple[str, str, str], Dict[int, float]] = {}
    for record in records:
        where = f"{record['side']} {record['workload']} pair {record['pair']}"
        result = record["result"]
        if result is None:
            failures.append(f"{where}: no result line")
            continue
        if result.get("correct") is not True or result.get("failed", 0) > 0:
            failures.append(
                f"{where}: correct={result.get('correct')} failed={result.get('failed')}"
            )
        for metric, entry in result.get("metrics", {}).items():
            values.setdefault((record["side"], record["workload"], metric), {})[
                record["pair"]
            ] = float(entry["value"])

    rows: List[tuple] = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        for spec in benchmark["end_to_end"]:
            metric = spec["name"]
            missing = [s for s in SIDES if not values.get((s, workload, metric))]
            if missing:
                failures.append(f"{workload} {metric}: no {'/'.join(missing)} results")
                continue
            base_runs, head_runs = (values[(side, workload, metric)] for side in SIDES)
            (base, base_iqr), (head, head_iqr) = (
                spread(list(runs.values())) for runs in (base_runs, head_runs)
            )
            delta = (head - base) / base if base else 0.0
            sign = 1 if spec["better"] == "lower" else -1
            worse = sign * delta
            status = "FAIL" if worse > spec["bound"] else "ok"
            paired = base_runs.keys() & head_runs.keys()
            wins = sum(sign * (base_runs[p] - head_runs[p]) > 0 for p in paired)
            rows.append((workload, metric, base, base_iqr, head, head_iqr, delta,
                         f"{wins}/{len(paired)}", status))
            if status == "FAIL":
                failures.append(
                    f"{workload} {metric}: {base:.4g} -> {head:.4g} "
                    f"({delta:+.1%}, bound {spec['bound']:.0%}, {spec['better']} is better)"
                )
    return rows, failures


def render(rows: List[tuple]) -> str:
    lines = [
        f"{'workload':<12} {'metric':<12} {'base':>10} {'iqr':>9} "
        f"{'head':>10} {'iqr':>9} {'delta':>8} {'head wins':>9}  verdict"
    ]
    for workload, metric, base, base_iqr, head, head_iqr, delta, wins, status in rows:
        lines.append(
            f"{workload:<12} {metric:<12} {base:>10.4g} {base_iqr:>9.3g} "
            f"{head:>10.4g} {head_iqr:>9.3g} {delta:>+8.1%} {wins:>9}  {status}"
        )
    return "\n".join(lines)


def moved_workloads(benchmark: dict, rows: List[tuple]) -> List[str]:
    """Workloads with a row that failed or moved past half its bound."""
    bounds = {spec["name"]: spec["bound"] for spec in benchmark["end_to_end"]}
    moved: List[str] = []
    for workload, metric, *_values, delta, _wins, status in rows:
        if status == "FAIL" or abs(delta) > bounds[metric] / 2:
            if workload not in moved:
                moved.append(workload)
    return moved


def layer_table(benchmark: dict, records: List[dict], workload: str) -> List[tuple]:
    """``(layer, unit, base, head, change)`` per-layer medians of one
    workload's traced runs: time layers first, then counts and bytes,
    each group by absolute change (time compared in milliseconds).
    Layers that read 0 on both sides are left out."""
    values: Dict[Tuple[str, str], List[float]] = {}
    for record in records:
        if record["workload"] != workload or record["result"] is None:
            continue
        for metric, entry in record["result"].get("metrics", {}).items():
            values.setdefault((record["side"], metric), []).append(float(entry["value"]))
    rows: List[tuple] = []
    for spec in benchmark["per_layer"]:
        layer, unit = spec["name"], spec["unit"]
        sides = [values.get((side, layer)) for side in SIDES]
        if not all(sides):
            continue
        base, head = (statistics.median(runs) for runs in sides)
        if base or head:  # a layer the workload never reaches reads 0
            rows.append((layer, unit, base, head, head - base))

    def key(row: tuple) -> Tuple[bool, float]:
        _layer, unit, _base, _head, change = row
        scale = TIME_UNITS.get(unit)
        return scale is None, -abs(change) * (scale or 1.0)

    return sorted(rows, key=key)


def render_layers(workload: str, rows: List[tuple]) -> str:
    lines = [
        f"{workload}: per-layer medians of traced runs "
        f"(this host's time; the end-to-end ms above are normalized)",
        f"{'layer':<30} {'unit':<6} {'base':>10} {'head':>10} {'change':>10}",
    ]
    for layer, unit, base, head, change in rows:
        lines.append(
            f"{layer:<30} {unit:<6} {base:>10.4g} {head:>10.4g} {change:>+10.4g}"
        )
    return "\n".join(lines)


def measure(
    benchmark: dict,
    trees: Dict[str, Path],
    base_sha: str,
    workloads: List[str],
    pairs: int,
    trace: int = 0,
) -> List[dict]:
    records: List[dict] = []
    RESULTS.parent.mkdir(exist_ok=True)
    for pair in range(pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                result = run_once(
                    trees[side], benchmark["command"], workload,
                    benchmark["run_seconds"], trace,
                )
                record = {"base": base_sha, "side": side, "workload": workload,
                          "pair": pair, "trace": trace, "result": result}
                records.append(record)
                with RESULTS.open("a", encoding="utf-8") as out:
                    out.write(json.dumps(record) + "\n")
                p50 = (result or {}).get("metrics", {}).get("op_p50_ms", {}).get("value")
                if result is not None and trace:
                    shown = "traced"
                else:
                    shown = f"op_p50_ms {p50:.4g}" if p50 is not None else "no result"
                print(f"pair {pair + 1}/{pairs} {workload:<12} {side}: {shown}",
                      flush=True)
    return records


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_ref", help="git ref of the base tree, e.g. HEAD^")
    args = parser.parse_args(argv)

    benchmark: Dict[str, Any] = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        base_sha = git("rev-parse", "--verify", "--quiet", f"{args.base_ref}^{{commit}}")
    except subprocess.CalledProcessError:
        parser.error(f"{args.base_ref!r} names no commit")
    scratch = Path(tempfile.mkdtemp(prefix="perf-ab-"))
    base_tree = scratch / "base"
    git("worktree", "add", "--detach", str(base_tree), base_sha)
    trees = {"base": base_tree, "head": ROOT}
    try:
        compile_trees(trees)
        workloads = [w["name"] for w in benchmark["workloads"]]
        print(f"perf-ab: base {args.base_ref} ({base_sha[:12]}) vs the working tree, "
              f"{PAIRS} pairs x {len(workloads)} workloads, "
              f"{benchmark['run_seconds']} s each", flush=True)
        records = measure(benchmark, trees, base_sha, workloads, PAIRS)
        rows, failures = verdict(benchmark, records)
        print()
        print(render(rows))
        moved = moved_workloads(benchmark, rows)
        if moved:
            print(f"\nmoved past half a bound: {', '.join(moved)}; "
                  f"{TRACED_PAIRS} traced pairs each", flush=True)
            traced = measure(benchmark, trees, base_sha, moved, TRACED_PAIRS, trace=1)
            for workload in moved:
                print()
                print(render_layers(workload, layer_table(benchmark, traced, workload)))
    finally:
        git("worktree", "remove", "--force", str(base_tree))
        shutil.rmtree(scratch, ignore_errors=True)

    if failures:
        print("\nperf-ab FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nperf-ab passed: no end-to-end metric worse than its bound "
          f"(medians of {PAIRS} runs per side)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
