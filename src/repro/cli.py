"""Command-line interface for the reproduction pipeline.

Subcommands mirror the paper's workflow (Fig. 1):

``simulate``
    Build a synthetic world, run defect injection + restoration +
    lifetime inference, export the two Listing-1 JSON datasets, and
    print the joint-analysis report.  ``--scenario NAME|PATH`` builds
    the world from a declarative scenario (see :mod:`repro.scenario`)
    instead of ``--scale``/``--seed``: the scenario's layers compile
    to the world config, and the scenario fingerprint is folded into
    the run manifest and the dataset cache key.  ``--taxonomy-out``
    writes the §6 taxonomy counts as canonical JSON — the golden
    artifact the CI scenario-matrix job byte-compares.
``scenarios``
    List the named scenarios of the library (``--json`` emits their
    ``scenario/v1`` documents).
``analyze``
    Load previously exported datasets and re-run the joint analysis
    (taxonomy, utilization, squat detection).
``export-mirror``
    Materialize a simulated delegation archive as an FTP-style
    directory tree of daily ``delegated-*`` files.
``squat-hunt``
    Run the §6.1.2 dormant-squat detector over exported datasets.
``export-dumps``
    Materialize per-collector MRT dump files (one directory per
    collector, one file per day).
``inspect``
    Consume exported run artifacts: ``inspect trace`` renders the span
    tree (critical path starred, optional flamegraph export),
    ``inspect ledger`` prints the record-conservation table (``--check``
    fails on any non-conserving stage), ``inspect serve-log`` renders
    per-route latency/error tables and top-ASN heat from a serve
    access log, and ``inspect diff`` compares two runs — by directory
    or manifest-digest prefix via the ``runs.jsonl`` index —
    attributing wall-time deltas to cache misses or stage slowdowns.
``serve-build``
    Build a read-optimized ``serve-store/v1`` snapshot (sharded
    lifetimes + taxonomy, see ``repro.serve``) from a simulated world.
``serve-append``
    Advance an existing store by N days incrementally — the store's
    exact world is re-simulated from the snapshot manifest's config
    fingerprint, and the result is byte-identical to a full rebuild
    over the extended window.
``serve``
    Answer point/as-of/range lifetime queries over HTTP from a store,
    with live telemetry on ``/metrics`` (Prometheus text) and
    ``/status`` and optional structured access logs
    (``--access-log/--log-sample``).
``serve-bench``
    Replay a deterministic zipf-skewed query load against an
    in-process server and report p50/p99/throughput;
    ``--metrics-check`` cross-checks the server's ``/metrics`` account
    of the run against the client's.

Every run is one process: each pipeline stage runs once, in-process,
over all of its items.  Runtime flags on ``simulate``: ``--cache-dir
PATH`` reuses/stores content-addressed pipeline artifacts (every
loaded entry is checked against its sha256 manifest; corrupt entries
are quarantined and rebuilt), and ``--profile`` prints the run's span
tree (per-stage wall times and item counts) plus the run's
degradation events, each also annotated on the span where it
happened.
``--bgp-window N`` rebuilds operational lifetimes from the
message-level BGP stream over the last N days with the columnar
activity engine (cached activity tables make repeat runs skip the
stream); without it, operational activity comes from the simulation's
activity intervals over the full window.

Every ``simulate`` run writes its record next to the exported
datasets (see DESIGN.md §7), each file atomically: ``trace.jsonl``
(the nested span trace as JSON lines), ``metrics.json`` (a
counters/gauges/histograms snapshot), ``ledger.json`` (the dataflow
conservation ledger) and ``run_manifest.json`` (config hash,
cache-key versions, run settings, fault-injection settings, git
describe, span digest).  The run is appended to a ``runs.jsonl``
index (``--runs-index``, default next to the datasets) so ``inspect
diff`` can address it later by digest prefix.

Run ``python -m repro.cli <subcommand> --help`` for options.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from .core.joint import JointAnalysis
from .core.report import render_report
from .core.squatting import detect_dormant_squatting
from .lifetimes.io import (
    dump_admin_dataset,
    dump_bgp_dataset,
    load_admin_dataset,
    load_bgp_dataset,
)
from .rir.ftp import export_archive
from .simulation.config import WorldConfig
from .simulation.datasets import build_datasets
from .timeline.dates import PAPER_END, from_iso, to_iso

if TYPE_CHECKING:
    from .runtime import Tracer

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'The parallel lives of Autonomous "
        "Systems: ASN Allocations vs. BGP' (IMC 2021)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="build a world and export datasets")
    simulate.add_argument("--scale", type=float, default=0.02,
                          help="fraction of paper-scale volume (default 0.02)")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--scenario", default=None, metavar="NAME|PATH",
                          help="build the world from a declarative scenario "
                          "instead of --scale/--seed: a named library "
                          "scenario ('repro scenarios' lists them) or a "
                          "scenario/v1 JSON file; the compiled config and "
                          "the scenario fingerprint go into the run "
                          "manifest and the cache key")
    simulate.add_argument("--taxonomy-out", nargs="?", const="@out",
                          default=None, metavar="PATH",
                          help="write the §6 taxonomy counts as canonical "
                          "JSON (the scenario-matrix golden artifact; "
                          "default PATH: OUT/taxonomy.json)")
    simulate.add_argument("--out", type=Path, default=Path("."),
                          help="output directory for the JSON datasets")
    simulate.add_argument("--no-pitfalls", action="store_true",
                          help="skip §3.1 defect injection")
    simulate.add_argument("--timeout", type=int, default=30,
                          help="BGP inactivity timeout in days (default 30)")
    simulate.add_argument("--cache-dir", type=Path, default=None,
                          help="content-addressed artifact cache directory "
                          "(warm hits skip the whole rebuild; every entry "
                          "is sha256-verified on load, and corrupt ones "
                          "are quarantined and rebuilt)")
    simulate.add_argument("--profile", action="store_true",
                          help="print the run's span tree (per-stage wall "
                          "times, item counts) and runtime events")
    simulate.add_argument("--runs-index", type=Path, default=None,
                          metavar="PATH",
                          help="append this run's manifest digest + artifact "
                          "paths to a runs.jsonl index so 'repro inspect "
                          "diff' can address it by digest prefix (default: "
                          "OUT/runs.jsonl)")
    simulate.add_argument("--bgp-window", type=int, default=None,
                          metavar="N",
                          help="rebuild operational activity from the "
                          "message-level BGP stream over the last N days "
                          "(columnar activity engine); default: read the "
                          "simulation's activity intervals over the full "
                          "window")

    scenarios = sub.add_parser(
        "scenarios", help="list the named scenarios of the library"
    )
    scenarios.add_argument("--json", action="store_true",
                           help="emit the scenario/v1 documents as a JSON "
                           "array instead of the text listing")

    analyze = sub.add_parser("analyze", help="joint analysis over exported datasets")
    analyze.add_argument("admin", type=Path, help="administrative dataset JSON")
    analyze.add_argument("operational", type=Path, help="operational dataset JSON")
    analyze.add_argument("--end", default=None,
                         help="window end (YYYY-MM-DD; default: paper end)")

    mirror = sub.add_parser("export-mirror",
                            help="write an FTP-style delegation-file tree")
    mirror.add_argument("--scale", type=float, default=0.01)
    mirror.add_argument("--seed", type=int, default=0)
    mirror.add_argument("--out", type=Path, required=True)
    mirror.add_argument("--start", default=None, help="first day (YYYY-MM-DD)")
    mirror.add_argument("--end", default=None, help="last day (YYYY-MM-DD)")

    hunt = sub.add_parser("squat-hunt",
                          help="run the §6.1.2 dormant-squat detector")
    hunt.add_argument("admin", type=Path)
    hunt.add_argument("operational", type=Path)
    hunt.add_argument("--dormancy", type=int, default=1000,
                      help="minimum allocated-but-silent days (default 1000)")
    hunt.add_argument("--relative-duration", type=float, default=0.05,
                      help="maximum op/admin duration ratio (default 0.05)")
    hunt.add_argument("--top", type=int, default=20)

    dumps = sub.add_parser("export-dumps",
                           help="write per-collector MRT dump files")
    dumps.add_argument("--scale", type=float, default=0.006)
    dumps.add_argument("--seed", type=int, default=0)
    dumps.add_argument("--out", type=Path, required=True)
    dumps.add_argument("--start", default=None, help="first day (YYYY-MM-DD)")
    dumps.add_argument("--end", default=None, help="last day (YYYY-MM-DD)")
    dumps.add_argument("--days", type=int, default=30,
                       help="length of the window when --start/--end are "
                       "not both given (default 30)")

    inspect = sub.add_parser(
        "inspect",
        help="analyze exported run artifacts (trace/ledger/diff)",
    )
    inspect_sub = inspect.add_subparsers(dest="inspect_command", required=True)

    itrace = inspect_sub.add_parser(
        "trace", help="render a span tree with critical-path highlighting"
    )
    itrace.add_argument("trace", type=Path,
                        help="trace.jsonl file (or the run directory)")
    itrace.add_argument("--depth", type=int, default=None,
                        help="maximum tree depth to print")
    itrace.add_argument("--flame", type=Path, default=None, metavar="PATH",
                        help="also write folded stacks (flamegraph input)")

    iledger = inspect_sub.add_parser(
        "ledger", help="print the record-conservation table"
    )
    iledger.add_argument("ledger", type=Path,
                         help="ledger.json file (or the run directory)")
    iledger.add_argument("--check", action="store_true",
                         help="exit non-zero if any stage fails "
                         "in == kept + dropped + routed")

    islog = inspect_sub.add_parser(
        "serve-log",
        help="per-route latency/error tables and top-ASN heat from a "
        "serve access log",
    )
    islog.add_argument("log", type=Path,
                       help="JSONL access log written by 'repro serve "
                       "--access-log' (rotated .1 backup is folded in "
                       "automatically)")
    islog.add_argument("--top", type=int, default=10, metavar="N",
                       help="ASNs to show in the heat table (default 10)")

    idiff = inspect_sub.add_parser(
        "diff", help="compare two runs and attribute wall-time deltas"
    )
    idiff.add_argument("run_a", help="run directory, or a manifest-digest "
                       "prefix resolved through --runs-index")
    idiff.add_argument("run_b", help="run directory or digest prefix")
    idiff.add_argument("--runs-index", type=Path, default=Path("runs.jsonl"),
                       metavar="PATH",
                       help="runs.jsonl index used to resolve digest "
                       "prefixes (default: ./runs.jsonl)")

    sbuild = sub.add_parser(
        "serve-build",
        help="build a read-optimized serve store from a simulated world",
    )
    sbuild.add_argument("--scale", type=float, default=0.02,
                        help="fraction of paper-scale volume (default 0.02)")
    sbuild.add_argument("--seed", type=int, default=0)
    sbuild.add_argument("--out", type=Path, required=True,
                        help="store directory (created/refreshed in place)")
    sbuild.add_argument("--window", type=int, default=365,
                        help="days of BGP activity the store covers, "
                        "ending at the window end (default 365)")
    sbuild.add_argument("--end-back", type=int, default=0,
                        help="move the window end N days before the "
                        "world's last simulated day, leaving headroom "
                        "for serve-append (default 0)")
    sbuild.add_argument("--timeout", type=int, default=30,
                        help="BGP inactivity timeout in days (default 30)")
    sbuild.add_argument("--min-peers", type=int, default=2)
    sbuild.add_argument("--min-corroboration", type=int, default=2)
    sbuild.add_argument("--shard-size", type=int, default=None,
                        help="ASNs per shard (default 512)")
    sbuild.add_argument("--no-pitfalls", action="store_true",
                        help="skip §3.1 defect injection")
    sbuild.add_argument("--cache-dir", type=Path, default=None,
                        help="artifact cache reused for the world build "
                        "and activity tables")
    sbuild.add_argument("--runs-index", type=Path, default=None,
                        metavar="PATH",
                        help="register the snapshot in this runs.jsonl "
                        "index (default: OUT/runs.jsonl)")
    sbuild.add_argument("--profile", action="store_true",
                        help="print the run's span tree and runtime events")

    sappend = sub.add_parser(
        "serve-append",
        help="advance a serve store by N days (byte-identical to a rebuild)",
    )
    sappend.add_argument("--store", type=Path, required=True,
                         help="existing serve-store/v1 directory")
    sappend.add_argument("--days", type=int, default=1,
                         help="days to append (default 1)")
    sappend.add_argument("--runs-index", type=Path, default=None,
                         metavar="PATH",
                         help="register the new snapshot in this "
                         "runs.jsonl index (default: STORE/runs.jsonl)")
    sappend.add_argument("--profile", action="store_true",
                         help="print the run's span tree and runtime events")

    serve = sub.add_parser(
        "serve", help="answer lifetime queries over HTTP from a store"
    )
    serve.add_argument("--store", type=Path, required=True)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8480,
                       help="TCP port (0 picks a free one; default 8480)")
    serve.add_argument("--access-log", type=Path, default=None, metavar="PATH",
                       help="write structured JSONL access logs to PATH "
                       "(rotated to PATH.1 by size)")
    serve.add_argument("--log-sample", type=int, default=1, metavar="N",
                       help="log every Nth request, deterministically "
                       "(default 1: every request)")
    serve.add_argument("--log-max-bytes", type=int, default=None,
                       metavar="BYTES",
                       help="rotate the access log past this size "
                       "(default 64 MiB)")

    sbench = sub.add_parser(
        "serve-bench",
        help="replay a deterministic query load against an in-process server",
    )
    sbench.add_argument("--store", type=Path, required=True)
    sbench.add_argument("--queries", type=int, default=10_000)
    sbench.add_argument("--concurrency", type=int, default=16)
    sbench.add_argument("--zipf-skew", type=float, default=1.1,
                        help="ASN popularity skew exponent (default 1.1)")
    sbench.add_argument("--seed", type=int, default=0)
    sbench.add_argument("--assert-p99-ms", type=float, default=None,
                        metavar="MS",
                        help="exit non-zero when p99 latency exceeds MS")
    sbench.add_argument("--json-out", type=Path, default=None,
                        metavar="PATH",
                        help="also write the report as JSON")
    sbench.add_argument("--metrics-check", action="store_true",
                        help="scrape /metrics before and after the run and "
                        "fail unless the server's request counters equal "
                        "queries sent or a server-side p50/p99 lies in "
                        "a higher histogram bucket than the client's")
    sbench.add_argument("--access-log", type=Path, default=None,
                        metavar="PATH",
                        help="write the in-process server's JSONL access "
                        "log to PATH")
    return parser


def _artifact_path(value, out: Path, default_name: str) -> Optional[Path]:
    """Resolve an optional-path flag: absent, bare, or explicit path."""
    if value is None:
        return None
    if value == "@out":
        return out / default_name
    return Path(value)


@contextmanager
def _run_tracer() -> Iterator["Tracer"]:
    """The run's tracer, which owns the run's metrics registry.

    Under ambient fault injection (``REPRO_FAULT_SEED``) every injected
    fault is mirrored into the trace as a span annotation, and counted
    in the run's metrics, until the block exits.
    """
    from .runtime import Tracer
    from .runtime.faults import from_env

    tracer = Tracer()
    injector = from_env()
    detach = tracer.subscribe_faults(injector) if injector is not None else None
    try:
        yield tracer
    finally:
        if detach is not None:
            detach()


def _print_profile(tracer: "Tracer") -> None:
    """``--profile``: the run's span tree, then its runtime events."""
    from .runtime.inspect import render_trace, trace_view

    print()
    print(render_trace(trace_view(tracer.to_lines())))
    if tracer.events:
        print(f"runtime events ({len(tracer.events)}):")
        for event in tracer.events:
            print(f"  {event}")


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .runtime import (
        build_ledger,
        build_run_manifest,
        record_run,
        write_json_atomic,
        write_ledger,
        write_run_manifest,
    )

    taxonomy_path = _artifact_path(args.taxonomy_out, args.out, "taxonomy.json")
    if args.bgp_window is not None and args.bgp_window < 1:
        print("error: --bgp-window must be at least 1 day", file=sys.stderr)
        return 2

    scenario = None
    scenario_key = None
    if args.scenario is not None:
        from .scenario import ScenarioError, resolve_scenario, scenario_fingerprint

        try:
            scenario = resolve_scenario(args.scenario)
            config = scenario.compile()
        except ScenarioError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        scenario_key = scenario_fingerprint(scenario)
        print(f"scenario {scenario.name} ({scenario.digest()[:12]}): "
              f"{len(scenario.layers)} layers -> scale {config.scale}, "
              f"{config.topology_recipe} topology, seed {config.seed}")
    else:
        config = WorldConfig(seed=args.seed, scale=args.scale)
    with _run_tracer() as tracer:
        bundle = build_datasets(
            config, inject_pitfalls=not args.no_pitfalls,
            timeout=args.timeout, cache=args.cache_dir, tracer=tracer,
            scenario_key=scenario_key,
        )
        end = config.end_day
        if args.bgp_window is None:
            op_lives = bundle.op_lives
        else:
            from .lifetimes.bgp import build_operational_dataset

            start = max(config.start_day, end - args.bgp_window + 1)
            op_lives, _tables = build_operational_dataset(
                bundle.world, start=start, end=end, timeout=args.timeout,
                cache=args.cache_dir, tracer=tracer,
            )
        joint = JointAnalysis(
            admin_lives=bundle.admin_lives,
            op_lives=op_lives,
            end_day=end,
            topology=bundle.world.topology,
            siblings=bundle.world.orgs.sibling_map(),
            truth=bundle.world.events,
            metrics=tracer.metrics,
        )
    metrics = tracer.metrics
    args.out.mkdir(parents=True, exist_ok=True)
    admin_path = args.out / "admin_dataset.json"
    op_path = args.out / "operational_dataset.json"
    n_admin = dump_admin_dataset(bundle.admin_lives, admin_path)
    n_op = dump_bgp_dataset(op_lives, op_path)
    print(render_report(joint, restoration=bundle.restoration_report))
    print(f"\nwrote {admin_path} ({n_admin} records)")
    print(f"wrote {op_path} ({n_op} records)")
    if taxonomy_path is not None:
        from .core.taxonomy import Category

        taxonomy = joint.taxonomy
        write_json_atomic(taxonomy_path, {
            "format": "taxonomy/v1",
            "scenario": scenario.name if scenario is not None else None,
            "scenario_digest": (
                scenario.digest() if scenario is not None else None
            ),
            "admin_counts": {
                c.value: taxonomy.admin_counts.get(c, 0) for c in Category
            },
            "op_counts": {
                c.value: taxonomy.op_counts.get(c, 0) for c in Category
            },
            "admin_lifetimes": joint.total_admin_lifetimes(),
            "op_lifetimes": joint.total_op_lifetimes(),
            "admin_asns": joint.total_admin_asns(),
            "op_asns": joint.total_op_asns(),
        })
        print(f"wrote {taxonomy_path} (taxonomy counts)")
    # the run's record: trace, metrics, ledger and manifest, always
    trace_path = tracer.write_jsonl(args.out / "trace.jsonl")
    print(f"wrote {trace_path} ({len(tracer.spans) + 1} spans)")
    metrics_path = write_json_atomic(args.out / "metrics.json", metrics.snapshot())
    print(f"wrote {metrics_path} (metrics snapshot)")
    ledger_doc = build_ledger(metrics)
    ledger_path = write_ledger(args.out / "ledger.json", ledger_doc)
    verdict = (
        "all conserving" if ledger_doc["conserved"]
        else "CONSERVATION VIOLATIONS"
    )
    print(f"wrote {ledger_path} ({len(ledger_doc['stages'])} ledger "
          f"stages, {verdict})")
    manifest = build_run_manifest(
        config=config,
        settings={
            "scenario": (
                {
                    "name": scenario.name,
                    "digest": scenario.digest(),
                    "fingerprint": scenario_key,
                }
                if scenario is not None else None
            ),
            "bgp_window": args.bgp_window,
            "timeout": args.timeout,
            "inject_pitfalls": not args.no_pitfalls,
            "cache_dir": str(args.cache_dir) if args.cache_dir else None,
        },
        tracer=tracer,
        # describe the checkout the *code* ran from, not the cwd
        git_root=Path(__file__).resolve().parent,
    )
    manifest_path = write_run_manifest(args.out / "run_manifest.json", manifest)
    print(f"wrote {manifest_path} (run manifest, "
          f"digest {manifest['digest'][:12]})")
    runs_index = args.runs_index
    if runs_index is None:
        runs_index = args.out / "runs.jsonl"
    record_run(runs_index, manifest, {
        "admin": admin_path,
        "operational": op_path,
        "manifest": manifest_path,
        "metrics": metrics_path,
        "trace": trace_path,
        "ledger": ledger_path,
    })
    print(f"registered run {manifest['digest'][:12]} in {runs_index}")
    if args.profile:
        _print_profile(tracer)
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    import json

    from .scenario import NAMED_SCENARIOS, scenario_to_dict

    if args.json:
        docs = [scenario_to_dict(s) for s in NAMED_SCENARIOS.values()]
        print(json.dumps(docs, indent=2))
        return 0
    print(f"{len(NAMED_SCENARIOS)} named scenarios "
          f"(run with: repro simulate --scenario NAME)\n")
    for name, scenario in NAMED_SCENARIOS.items():
        layers = ", ".join(layer.layer_name for layer in scenario.layers)
        print(f"{name}  [{scenario.digest()[:12]}]")
        print(f"  layers: {layers}")
        print(f"  {scenario.description}")
        print()
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    admin_lives = load_admin_dataset(args.admin)
    op_lives = load_bgp_dataset(args.operational)
    end_day = from_iso(args.end) if args.end else PAPER_END
    joint = JointAnalysis(admin_lives, op_lives, end_day=end_day)
    print(render_report(joint))
    return 0


def _cmd_export_mirror(args: argparse.Namespace) -> int:
    from .rir.archive import DelegationArchive
    from .rir.pitfalls import PitfallInjector
    from .simulation.world import WorldSimulator

    config = WorldConfig(seed=args.seed, scale=args.scale)
    world = WorldSimulator(config).run()
    clean = DelegationArchive(world.registries, config.end_day)
    windows = {w.source: (w.first_day, w.last_day) for w in clean.sources()}
    injector = PitfallInjector(world.registries, config.end_day,
                               seed=config.seed + 6)
    overlay = injector.inject_all(windows, world.transfers)
    archive = DelegationArchive(world.registries, config.end_day, overlay)
    start = from_iso(args.start) if args.start else None
    end = from_iso(args.end) if args.end else None
    written = export_archive(archive, args.out, start=start, end=end)
    print(f"wrote {written} delegation files under {args.out}")
    return 0


def _cmd_squat_hunt(args: argparse.Namespace) -> int:
    admin_lives = load_admin_dataset(args.admin)
    op_lives = load_bgp_dataset(args.operational)
    candidates = detect_dormant_squatting(
        admin_lives,
        op_lives,
        dormancy_days=args.dormancy,
        relative_duration=args.relative_duration,
    )
    print(f"{len(candidates)} operational lives match the filter "
          f"(dormancy >= {args.dormancy}d, relative duration <= "
          f"{args.relative_duration:.0%})")
    for candidate in candidates[: args.top]:
        print(
            f"  AS{candidate.asn}: dormant {candidate.dormancy_days}d, "
            f"then active {to_iso(candidate.op_start)} .. "
            f"{to_iso(candidate.op_end)} "
            f"({candidate.relative_duration:.1%} of the admin life)"
        )
    return 0


def _cmd_export_dumps(args: argparse.Namespace) -> int:
    from .bgp.dumps import materialize_collector_dumps
    from .simulation.world import WorldSimulator

    config = WorldConfig(seed=args.seed, scale=args.scale)
    world = WorldSimulator(config).run()
    end = from_iso(args.end) if args.end else config.end_day
    start = from_iso(args.start) if args.start else end - args.days + 1
    start = max(start, config.start_day)
    if end < start:
        print(f"error: window end {to_iso(end)} precedes start {to_iso(start)}",
              file=sys.stderr)
        return 2
    announcements = {
        day: world.announcements_for_day(day) for day in range(start, end + 1)
    }
    written = materialize_collector_dumps(
        world.topology, world.collectors, announcements, args.out,
        start=start, end=end,
    )
    for name, (files, elements) in written.items():
        print(f"{name}: {files} files, {elements} elements")
    print(f"wrote dumps for {len(written)} collectors under {args.out}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from .runtime import inspect as insp
    from .runtime import ledger as ledger_mod
    from .runtime import runs as runs_mod

    if args.inspect_command == "trace":
        view = insp.load_trace(args.trace)
        print(insp.render_trace(view, max_depth=args.depth))
        if args.flame is not None:
            args.flame.parent.mkdir(parents=True, exist_ok=True)
            args.flame.write_text(
                "\n".join(insp.folded_stacks(view)) + "\n", encoding="utf-8"
            )
            print(f"wrote {args.flame} (folded stacks)")
        return 0

    if args.inspect_command == "ledger":
        try:
            document = ledger_mod.load_ledger(args.ledger)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(ledger_mod.render_ledger(document))
        if args.check:
            violations = ledger_mod.check_ledger(document)
            if violations:
                for violation in violations:
                    print(f"VIOLATION: {violation}", file=sys.stderr)
                return 1
            print(f"{len(document.get('stages', []))} stages conserve")
        return 0

    if args.inspect_command == "serve-log":
        try:
            summary = insp.load_access_log(args.log)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(insp.render_serve_log(summary, top=args.top))
        return 0

    # diff: each side is a run directory, or a manifest-digest prefix
    # resolved through the runs index
    def resolve(ref: str) -> insp.RunArtifacts:
        candidate = Path(ref)
        if candidate.exists():
            return insp.load_run(candidate)
        entry = runs_mod.resolve_run(args.runs_index, ref)
        run_dir = runs_mod.run_path(entry)
        if run_dir is None:
            raise runs_mod.RunLookupError(
                f"run {ref!r} has no artifact paths in the index"
            )
        return insp.load_run(run_dir, artifacts=entry.get("artifacts", {}))

    try:
        run_a = resolve(args.run_a)
        run_b = resolve(args.run_b)
    except runs_mod.RunLookupError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    print(insp.render_diff(insp.diff_runs(run_a, run_b)))
    return 0


def _cmd_serve_build(args: argparse.Namespace) -> int:
    from .serve.store import DEFAULT_SHARD_SIZE, ServeStoreError, build_store

    if args.window < 1:
        print("error: --window must be at least 1 day", file=sys.stderr)
        return 2
    config = WorldConfig(seed=args.seed, scale=args.scale)
    end = config.end_day - max(0, args.end_back)
    start = max(config.start_day, end - args.window + 1)
    if end <= config.start_day:
        print("error: --end-back pushes the window before the world starts",
              file=sys.stderr)
        return 2
    runs_index = args.runs_index
    if runs_index is None:
        runs_index = args.out / "runs.jsonl"
    with _run_tracer() as tracer:
        try:
            bundle = build_datasets(
                config, inject_pitfalls=not args.no_pitfalls,
                timeout=args.timeout, cache=args.cache_dir,
                tracer=tracer,
            )
            doc = build_store(
                args.out, bundle.world, bundle.admin_lives,
                start=start, end=end, timeout=args.timeout,
                min_peers=args.min_peers,
                min_corroboration=args.min_corroboration,
                shard_size=(args.shard_size if args.shard_size
                            else DEFAULT_SHARD_SIZE),
                cache=args.cache_dir, tracer=tracer,
                runs_index=runs_index,
            )
        except ServeStoreError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    counts = doc["counts"]
    print(f"built store {args.out}: {counts['asns']} ASNs, "
          f"{counts['admin_lives']} admin + {counts['op_lives']} op lives, "
          f"{len(doc['shards'])} shards, window "
          f"{to_iso(start)} .. {to_iso(end)}")
    print(f"snapshot {doc['digest'][:12]} registered in {runs_index}")
    if args.profile:
        _print_profile(tracer)
    return 0


def _cmd_serve_append(args: argparse.Namespace) -> int:
    import json

    from .serve.append import append_days
    from .serve.store import MANIFEST_NAME, ServeStoreError, config_from_fingerprint
    from .simulation.world import WorldSimulator

    manifest_path = args.store / MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {manifest_path}: {exc}", file=sys.stderr)
        return 2
    runs_index = args.runs_index
    if runs_index is None:
        runs_index = args.store / "runs.jsonl"
    with _run_tracer() as tracer:
        try:
            config = config_from_fingerprint(manifest.get("config"))
            with tracer.stage("simulate", component="simulation") as span:
                world = WorldSimulator(config).run(tracer=tracer)
                span.items = len(world.lives)
            doc = append_days(
                args.store, world, args.days, tracer=tracer,
                runs_index=runs_index,
            )
        except ServeStoreError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    meta = doc["meta"]
    print(f"appended {args.days} day(s): window now "
          f"{to_iso(meta['start'])} .. {to_iso(meta['end'])}, "
          f"{doc['counts']['asns']} ASNs")
    print(f"snapshot {doc['digest'][:12]} registered in {runs_index}")
    if args.profile:
        _print_profile(tracer)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve.http import LifetimesServer
    from .serve.index import StoreIndex
    from .serve.store import ServeStoreError
    from .serve.telemetry import AccessLog, ServerTelemetry

    try:
        index = StoreIndex.open(args.store)
    except ServeStoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    telemetry = None
    if args.access_log is not None:
        log_kwargs = {"sample": args.log_sample}
        if args.log_max_bytes is not None:
            log_kwargs["max_bytes"] = args.log_max_bytes
        telemetry = ServerTelemetry(
            access_log=AccessLog(args.access_log, **log_kwargs)
        )
    server = LifetimesServer(
        index, host=args.host, port=args.port, telemetry=telemetry
    )

    async def run() -> None:
        host, port = await server.start()
        print(f"serving {len(index)} ASNs (snapshot {index.digest[:12]}) "
              f"on http://{host}:{port}")
        if args.access_log is not None:
            print(f"access log: {args.access_log} "
                  f"(1-in-{max(1, args.log_sample)} sampling)")
        await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from .serve.http import LifetimesServer
    from .serve.index import StoreIndex
    from .serve.loadgen import plan_queries, run_load, run_load_checked
    from .serve.store import ServeStoreError
    from .serve.telemetry import AccessLog, ServerTelemetry

    try:
        index = StoreIndex.open(args.store)
        plan = plan_queries(
            index.all_asns(), index.meta, args.queries,
            seed=args.seed, skew=args.zipf_skew,
        )
    except ServeStoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    telemetry = None
    if args.access_log is not None:
        telemetry = ServerTelemetry(access_log=AccessLog(args.access_log))

    async def run():
        server = LifetimesServer(index, telemetry=telemetry)
        host, port = await server.start()
        try:
            if args.metrics_check:
                return await run_load_checked(
                    host, port, plan, concurrency=args.concurrency
                )
            return (
                await run_load(host, port, plan, concurrency=args.concurrency),
                None,
            )
        finally:
            await server.close()

    report, consistency = asyncio.run(run())
    doc = report.to_json_dict()
    doc["snapshot"] = index.digest
    print(f"{report.queries} queries in {report.seconds:.2f}s: "
          f"{report.qps:,.0f} q/s, p50 {report.p50_us / 1000:.2f}ms, "
          f"p99 {report.p99_us / 1000:.2f}ms, {report.errors} errors")
    if consistency is not None:
        doc["consistency"] = consistency
        server_q = consistency["server"]
        print(f"metrics check: server saw {consistency['server_requests']} "
              f"of {consistency['sent']} queries; server-side "
              f"p50 {server_q.get('p50_us', 0.0) / 1000:.2f}ms, "
              f"p99 {server_q.get('p99_us', 0.0) / 1000:.2f}ms")
    if args.access_log is not None:
        print(f"access log: {args.access_log}")
    if args.json_out is not None:
        args.json_out.parent.mkdir(parents=True, exist_ok=True)
        args.json_out.write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {args.json_out}")
    if report.errors:
        print(f"error: {report.errors} queries failed", file=sys.stderr)
        return 1
    if args.assert_p99_ms is not None and report.p99_us > args.assert_p99_ms * 1000:
        print(f"error: p99 {report.p99_us / 1000:.2f}ms exceeds the "
              f"{args.assert_p99_ms:.2f}ms bound", file=sys.stderr)
        return 1
    if consistency is not None:
        if not consistency["requests_match"]:
            print(f"error: /metrics reports "
                  f"{consistency['server_requests']} data-route requests, "
                  f"client sent {consistency['sent']}", file=sys.stderr)
            return 1
        # Each server window nests inside its client window, so this
        # holds at any concurrency.
        if not consistency["quantiles_agree"]:
            print(f"error: server-side quantiles {consistency['server']} "
                  f"disagree with client-side {consistency['client']} "
                  f"(bucket offsets {consistency['bucket_offsets']})",
                  file=sys.stderr)
            return 1
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "scenarios": _cmd_scenarios,
    "analyze": _cmd_analyze,
    "export-mirror": _cmd_export_mirror,
    "squat-hunt": _cmd_squat_hunt,
    "export-dumps": _cmd_export_dumps,
    "inspect": _cmd_inspect,
    "serve-build": _cmd_serve_build,
    "serve-append": _cmd_serve_append,
    "serve": _cmd_serve,
    "serve-bench": _cmd_serve_bench,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
