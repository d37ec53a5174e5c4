"""End-to-end tests for the command-line interface."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.scale == 0.02
        assert args.timeout == 30

    def test_squat_hunt_args(self):
        args = build_parser().parse_args(
            ["squat-hunt", "a.json", "b.json", "--dormancy", "500"]
        )
        assert args.dormancy == 500

    def test_simulate_fault_tolerance_flags(self):
        args = build_parser().parse_args(["simulate"])
        # every run is one process: the pool's knobs are gone
        assert not hasattr(args, "jobs")
        # cache entries are always sha256-verified: there is no mode
        assert not hasattr(args, "cache_verify")
        for retired in (["--retries", "5"], ["--on-worker-failure", "raise"],
                        ["--cache-verify", "off"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["simulate", *retired])

    def test_bgp_window_alone_selects_message_level(self):
        assert build_parser().parse_args(["simulate"]).bgp_window is None
        args = build_parser().parse_args(["simulate", "--bgp-window", "120"])
        assert args.bgp_window == 120
        # one activity path: there is no engine to pick
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--bgp-engine", "object"])


class TestCommands:
    def test_simulate_then_analyze_then_hunt(self, tmp_path, capsys):
        rc = main([
            "simulate", "--scale", "0.006", "--seed", "3",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Taxonomy" in out
        admin = tmp_path / "admin_dataset.json"
        operational = tmp_path / "operational_dataset.json"
        assert admin.exists() and operational.exists()
        rows = json.loads(admin.read_text())
        assert {"ASN", "regDate", "startdate", "enddate", "status",
                "registry"} <= set(rows[0])

        rc = main(["analyze", str(admin), str(operational)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "administrative lifetimes" in out

        rc = main(["squat-hunt", str(admin), str(operational)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "match the filter" in out

    def test_simulate_with_verified_cache(self, tmp_path, capsys):
        argv = [
            "simulate", "--scale", "0.006", "--seed", "3",
            "--out", str(tmp_path / "data"),
            "--cache-dir", str(tmp_path / "cache"), "--profile",
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "cache:store" in cold
        # second run is a verified warm hit; datasets are identical
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "cache:lookup" in warm
        admin = (tmp_path / "data" / "admin_dataset.json").read_text()
        assert json.loads(admin)  # valid dataset after warm rebuild

    def test_trace_implies_ledger_and_registers_run(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main([
            "simulate", "--scale", "0.006", "--seed", "3",
            "--out", str(out), "--trace", "--metrics-out", "--manifest",
        ])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "all conserving" in printed
        assert "registered run" in printed
        ledger = json.loads((out / "ledger.json").read_text())
        assert ledger["format"] == "ledger/v1"
        assert ledger["conserved"] is True
        index = (out / "runs.jsonl").read_text().splitlines()
        assert len(index) == 1
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert json.loads(index[0])["digest"] == manifest["digest"]

    def test_bgp_window_runs_message_level_path(self, tmp_path, capsys):
        rc = main(["simulate", "--scale", "0.006", "--seed", "3",
                   "--bgp-window", "30", "--out", str(tmp_path),
                   "--manifest", "--profile"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bgp:sanitize" in out and "bgp:segment" in out
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["settings"]["bgp_window"] == 30
        assert "bgp_engine" not in manifest["settings"]

    def test_bgp_window_below_one_rejected_before_building(
        self, tmp_path, capsys
    ):
        for window in ("0", "-3"):
            rc = main(["simulate", "--scale", "0.006", "--seed", "3",
                       "--bgp-window", window, "--out", str(tmp_path)])
            assert rc == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error: --bgp-window")
            assert "Taxonomy" not in captured.out  # nothing was built
            assert not (tmp_path / "admin_dataset.json").exists()

    def test_serve_build_append_bench_workflow(self, tmp_path, capsys):
        full, inc = tmp_path / "full", tmp_path / "inc"
        base = ["--scale", "0.006", "--seed", "3"]
        rc = main(["serve-build", *base, "--out", str(full), "--window", "45",
                   "--profile"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "built store" in out and "snapshot" in out
        # --profile prints the run's span tree, serve stages included
        assert "critical path starred" in out
        assert "serve:assemble" in out and "serve:publish" in out

        rc = main(["serve-build", *base, "--out", str(inc),
                   "--window", "43", "--end-back", "2"])
        assert rc == 0
        capsys.readouterr()
        # append re-simulates the world from the manifest fingerprint
        # alone — no --scale/--seed needed — and must converge on the
        # full build's bytes
        rc = main(["serve-append", "--store", str(inc), "--days", "2"])
        assert rc == 0
        assert "appended 2 day(s)" in capsys.readouterr().out
        for path in sorted(full.iterdir()):
            if path.name == "runs.jsonl":
                continue  # registry histories legitimately differ
            assert path.read_bytes() == (inc / path.name).read_bytes(), path.name

        rc = main(["serve-bench", "--store", str(full),
                   "--queries", "300", "--concurrency", "4",
                   "--metrics-check",
                   "--access-log", str(tmp_path / "access.jsonl"),
                   "--json-out", str(tmp_path / "bench.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "300 queries" in out
        assert "metrics check: server saw 300 of 300 queries" in out
        report = json.loads((tmp_path / "bench.json").read_text())
        assert report["queries"] == 300 and report["errors"] == 0
        assert report["consistency"]["requests_match"] is True
        assert report["consistency"]["server"]["p99_us"] > 0

        rc = main(["inspect", "serve-log", str(tmp_path / "access.jsonl"),
                   "--top", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Access log: 30" in out  # 300 queries + the two scrapes
        assert "/asn/{n}/lives" in out
        assert "top 3 ASNs" in out

    def test_serve_bench_enforces_p99_bound(self, tmp_path, capsys):
        store = tmp_path / "store"
        rc = main(["serve-build", "--scale", "0.006", "--seed", "3",
                   "--out", str(store), "--window", "30"])
        assert rc == 0
        capsys.readouterr()
        rc = main(["serve-bench", "--store", str(store), "--queries", "200",
                   "--assert-p99-ms", "0.000001"])
        assert rc == 1
        assert "exceeds" in capsys.readouterr().err

    def test_serve_commands_fail_typed_on_missing_store(self, tmp_path, capsys):
        rc = main(["serve-append", "--store", str(tmp_path), "--days", "1"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        rc = main(["serve-bench", "--store", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_export_mirror(self, tmp_path, capsys):
        rc = main([
            "export-mirror", "--scale", "0.006", "--seed", "3",
            "--out", str(tmp_path / "mirror"),
            "--start", "2010-06-01", "--end", "2010-06-05",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "delegation files" in out
        files = list((tmp_path / "mirror").rglob("delegated-*"))
        assert files
        # files parse with the library codec
        from repro.rir import MirrorReader

        reader = MirrorReader(tmp_path / "mirror")
        assert reader.sources()


class TestInspectCommands:
    @pytest.fixture()
    def two_runs(self, tmp_path):
        """A cold run and a warm (cache-hit) rerun of the same config."""
        index = tmp_path / "runs.jsonl"

        def simulate(name):
            out = tmp_path / name
            assert main([
                "simulate", "--scale", "0.006", "--seed", "3",
                "--out", str(out), "--cache-dir", str(tmp_path / "cache"),
                "--trace", "--metrics-out", "--manifest",
                "--runs-index", str(index),
            ]) == 0
            return out

        return simulate("cold"), simulate("warm"), index

    def test_inspect_trace_renders_and_exports_stacks(
        self, two_runs, tmp_path, capsys
    ):
        cold, _, _ = two_runs
        capsys.readouterr()
        flame = tmp_path / "stacks.folded"
        rc = main([
            "inspect", "trace", str(cold / "trace.jsonl"),
            "--depth", "2", "--flame", str(flame),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "critical path starred" in out
        assert "simulate" in out
        assert flame.read_text().splitlines()

    def test_inspect_ledger_check_passes_on_conserving_run(
        self, two_runs, capsys
    ):
        cold, _, _ = two_runs
        capsys.readouterr()
        rc = main(["inspect", "ledger", str(cold / "ledger.json"), "--check"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "stages conserve" in out

    def test_inspect_ledger_check_fails_on_violation(self, tmp_path, capsys):
        doc = {
            "format": "ledger/v1", "conserved": False,
            "stages": [{"stage": "x:f", "in": 5, "kept": 3,
                        "dropped": {}, "routed": {}}],
        }
        path = tmp_path / "ledger.json"
        path.write_text(json.dumps(doc))
        rc = main(["inspect", "ledger", str(path), "--check"])
        assert rc == 1
        assert "VIOLATION" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        None, "{not json", '["ledger/v1"]', '{"format": "metrics/v1"}',
    ], ids=["missing", "not-json", "not-an-object", "foreign-format"])
    def test_inspect_ledger_unreadable_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "ledger.json"
        if content is not None:
            path.write_text(content)
        rc = main(["inspect", "ledger", str(path), "--check"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    def test_inspect_diff_by_path_attributes_cache_hit(
        self, two_runs, capsys
    ):
        cold, warm, _ = two_runs
        capsys.readouterr()
        rc = main(["inspect", "diff", str(cold), str(warm)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cache-hit" in out
        assert "cache miss→hit" in out

    def test_inspect_diff_by_digest_prefix(self, two_runs, capsys):
        cold, warm, index = two_runs
        capsys.readouterr()
        digests = [
            json.loads(line)["digest"]
            for line in index.read_text().splitlines()
        ]
        assert len(digests) == 2 and digests[0] != digests[1]
        rc = main([
            "inspect", "diff", digests[0][:12], digests[1][:12],
            "--runs-index", str(index),
        ])
        assert rc == 0
        assert "Run diff" in capsys.readouterr().out

    def test_inspect_diff_unknown_prefix_exits_2(self, tmp_path, capsys):
        rc = main([
            "inspect", "diff", "feedfeed", "beefbeef",
            "--runs-index", str(tmp_path / "runs.jsonl"),
        ])
        assert rc == 2
        assert "no run" in capsys.readouterr().err


class TestTopLevelApi:
    def test_runs_without_networkx(self):
        """No module of the package needs networkx: with it made
        unimportable, the entry points import and a world simulates."""
        script = textwrap.dedent("""
            import sys
            sys.modules["networkx"] = None  # any import of it now fails
            import repro.cli
            import repro.serve.http
            import repro.simulation.datasets
            from repro.simulation.config import tiny
            from repro.simulation.world import WorldSimulator
            world = WorldSimulator(tiny(1)).run()
            assert len(world.topology) > 0
            print("ok")
        """)
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "ok"

    def test_convenience_imports(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_workflow_through_top_level(self, tmp_path):
        import repro

        bundle = repro.build_datasets(repro.WorldConfig(seed=1, scale=0.004))
        assert isinstance(bundle, repro.DatasetBundle)
        text = repro.render_report(bundle.joint)
        assert "Taxonomy" in text
        path = tmp_path / "admin.json"
        repro.dump_admin_dataset(bundle.admin_lives, path)
        assert repro.load_admin_dataset(path)
