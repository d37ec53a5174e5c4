"""Inspect toolkit: trace views, run diff attribution, the run registry.

The diff tests build synthetic manifest+metrics+trace triples with a
*known* injected regression — one deliberately slowed stage, one forced
cache miss — and assert ``diff_runs`` attributes each delta to the
right cause.  Runs written before the process pool was removed (worker
``task`` spans, a manifest naming its ``backend``) must still load.  The registry tests cover
digest-prefix resolution, ambiguity, and torn-line tolerance.
"""

import json

import pytest

from repro.runtime import (
    RUNS_FORMAT,
    RunLookupError,
    critical_path,
    diff_runs,
    folded_stacks,
    load_run,
    load_runs,
    load_trace,
    record_run,
    render_diff,
    render_trace,
    resolve_run,
)
from repro.cli import main
from repro.runtime.runs import run_path

TRACE_HEADER = {"format": "pipeline-trace/v1", "trace_id": "cafe"}


def _span(span_id, parent_id, name, *, kind="stage", start=0.0, seconds=0.0,
          attrs=None, annotations=None):
    return {
        "span_id": span_id, "parent_id": parent_id, "name": name,
        "kind": kind, "start": start, "seconds": seconds,
        "attrs": attrs or {}, "annotations": annotations or [], "pid": 1,
    }


def _write_trace(path, spans):
    lines = [dict(TRACE_HEADER, spans=len(spans))]
    lines.extend(spans)
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return path


def _tree_spans():
    return [
        _span(1, None, "run", kind="root", start=0.0, seconds=1.0),
        _span(2, 1, "simulate", start=0.0, seconds=0.2),
        _span(3, 1, "restore", start=0.2, seconds=0.7),
        _span(4, 3, "task-a", kind="task", start=0.2, seconds=0.3),
        _span(5, 3, "task-b", kind="task", start=0.2, seconds=0.35),
    ]


class TestTraceView:
    def test_load_indexes_the_tree(self, tmp_path):
        view = load_trace(_write_trace(tmp_path / "trace.jsonl", _tree_spans()))
        assert view.header["trace_id"] == "cafe"
        assert [s["name"] for s in view.roots] == ["run"]
        assert [s["name"] for s in view.children[1]] == ["simulate", "restore"]
        assert [s["name"] for s in view.stage_spans()] == ["simulate", "restore"]
        assert [t["name"] for t in view.children[3]] == ["task-a", "task-b"]

    def test_load_accepts_run_directory(self, tmp_path):
        _write_trace(tmp_path / "trace.jsonl", _tree_spans())
        assert load_trace(tmp_path).by_id[1]["name"] == "run"

    def test_load_rejects_foreign_format(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps({"format": "bogus/v0"}) + "\n")
        with pytest.raises(ValueError):
            load_trace(path)

    def test_orphans_become_roots(self, tmp_path):
        spans = [_span(7, 99, "lost", seconds=0.1)]  # parent never exported
        view = load_trace(_write_trace(tmp_path / "trace.jsonl", spans))
        assert [s["name"] for s in view.roots] == ["lost"]

    def test_critical_path_follows_heaviest_children(self, tmp_path):
        view = load_trace(_write_trace(tmp_path / "trace.jsonl", _tree_spans()))
        # run -> restore (0.7 > 0.2) -> task-b (0.35 > 0.3)
        assert critical_path(view) == {1, 3, 5}

    def test_render_marks_critical_path(self, tmp_path):
        view = load_trace(_write_trace(tmp_path / "trace.jsonl", _tree_spans()))
        text = render_trace(view)
        starred = [l for l in text.splitlines() if l.startswith("*")]
        assert len(starred) == 3
        assert any("task-b" in line for line in starred)
        assert not any("task-a" in line for line in starred)

    def test_render_depth_limit(self, tmp_path):
        view = load_trace(_write_trace(tmp_path / "trace.jsonl", _tree_spans()))
        text = render_trace(view, max_depth=1)
        assert "restore" in text and "task-a" not in text

    def test_folded_stacks_self_time(self, tmp_path):
        view = load_trace(_write_trace(tmp_path / "trace.jsonl", _tree_spans()))
        stacks = dict(
            line.rsplit(" ", 1) for line in folded_stacks(view)
        )
        # root self time: 1.0 - (0.2 + 0.7) = 0.1s = 100000µs
        assert int(stacks["run"]) == 100000
        # restore self time: 0.7 - (0.3 + 0.35) = 0.05s
        assert int(stacks["run;restore"]) == 50000
        assert int(stacks["run;restore;task-b"]) == 350000


def _write_run(path, *, digest, stages, cache=None, tasks=None,
               config_hash="cfg", span_sha="spans", settings=None):
    """A synthetic manifest+metrics+trace triple.

    ``stages`` maps stage name -> wall seconds; ``cache`` maps stage
    name -> hit/miss span attribute; ``tasks`` maps stage name -> the
    durations of worker ``task`` children, the shape traces had while
    runs could fan out over a process pool (whose manifests also named
    their ``backend``).
    """
    path.mkdir(parents=True, exist_ok=True)
    (path / "run_manifest.json").write_text(json.dumps({
        "format": "run-manifest/v1",
        "digest": digest,
        "config_hash": config_hash,
        "span_digest": {"sha256": span_sha},
        "settings": settings or {},
        "backend": "serial",
    }))
    (path / "metrics.json").write_text(json.dumps({
        "counters": {},
        "histograms": {
            f"stage.{name}.seconds": {"count": 1, "sum": seconds}
            for name, seconds in stages.items()
        },
    }))
    spans = [_span(1, None, "run", kind="root",
                   seconds=sum(stages.values()))]
    next_id = 2
    for index, (name, seconds) in enumerate(sorted(stages.items())):
        attrs = {}
        if cache and name in cache:
            attrs["cache"] = cache[name]
        stage_id = next_id
        spans.append(_span(stage_id, 1, name, start=float(index),
                           seconds=seconds, attrs=attrs))
        next_id += 1
        for task_seconds in (tasks or {}).get(name, []):
            spans.append(_span(next_id, stage_id, f"{name}[t]", kind="task",
                               start=float(index), seconds=task_seconds,
                               attrs={"worker": True}))
            next_id += 1
    _write_trace(path / "trace.jsonl", spans)
    return path


class TestDiffRuns:
    def test_attributes_the_injected_regressions(self, tmp_path):
        # run A: warm restore hit, fast stream
        a = load_run(_write_run(
            tmp_path / "a", digest="aaa111",
            stages={"simulate": 0.30, "bgp:stream": 0.10,
                    "restore:archive": 0.02},
            cache={"restore:archive": "hit"},
        ))
        # run B: same config, one slowed stage, one forced cache miss
        b = load_run(_write_run(
            tmp_path / "b", digest="bbb222", span_sha="spans2",
            stages={"simulate": 0.31, "bgp:stream": 0.50,
                    "restore:archive": 0.80},
            cache={"restore:archive": "miss"},
        ))
        diff = diff_runs(a, b)
        causes = {row["stage"]: row["cause"] for row in diff["stages"]}
        assert causes == {
            "simulate": "unchanged",
            "bgp:stream": "stage-slowdown",
            "restore:archive": "cache-miss",
        }
        identity = diff["identity"]
        assert not identity["same_digest"]
        assert identity["same_config"]
        assert not identity["same_span_digest"]
        assert diff["total_delta"] == pytest.approx(1.19)

        text = render_diff(diff)
        assert "cache hit→miss" in text
        assert "span digest differs" in text

    def test_reverse_direction_reads_as_recovery(self, tmp_path):
        a = load_run(_write_run(
            tmp_path / "a", digest="aaa111",
            stages={"restore:archive": 0.80}, cache={"restore:archive": "miss"},
        ))
        b = load_run(_write_run(
            tmp_path / "b", digest="bbb222",
            stages={"restore:archive": 0.02}, cache={"restore:archive": "hit"},
        ))
        (row,) = diff_runs(a, b)["stages"]
        assert row["cause"] == "cache-hit"

    def test_added_and_removed_stages(self, tmp_path):
        a = load_run(_write_run(tmp_path / "a", digest="a",
                                stages={"old": 0.5, "both": 0.2}))
        b = load_run(_write_run(tmp_path / "b", digest="b",
                                stages={"new": 0.4, "both": 0.2}))
        causes = {r["stage"]: r["cause"] for r in diff_runs(a, b)["stages"]}
        assert causes == {"old": "removed", "new": "added", "both": "unchanged"}

    def test_settings_changes_reported(self, tmp_path):
        a = load_run(_write_run(tmp_path / "a", digest="a",
                                stages={"s": 0.1}, settings={"timeout": 30}))
        b = load_run(_write_run(tmp_path / "b", digest="b",
                                stages={"s": 0.1}, settings={"timeout": 60}))
        assert diff_runs(a, b)["identity"]["settings_changed"] == ["timeout"]

    def test_reads_pool_era_runs(self, tmp_path, capsys):
        # a run from when stages fanned out over a process pool: task
        # children under a stage and a manifest naming its backend
        a = _write_run(
            tmp_path / "a", digest="aaa111",
            stages={"admin-lifetimes": 0.40, "simulate": 0.30},
            tasks={"admin-lifetimes": [0.05, 0.05, 0.05, 0.85]},
        )
        manifest = json.loads((a / "run_manifest.json").read_text())
        manifest["backend"] = "process"
        (a / "run_manifest.json").write_text(json.dumps(manifest))
        b = _write_run(
            tmp_path / "b", digest="bbb222",
            stages={"admin-lifetimes": 0.10, "simulate": 0.30},
        )

        assert main(["inspect", "trace", str(a)]) == 0
        out = capsys.readouterr().out
        assert "admin-lifetimes[t]" in out
        assert main(["inspect", "diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "stage-speedup" in out

        diff = diff_runs(load_run(a), load_run(b))
        causes = {row["stage"]: row["cause"] for row in diff["stages"]}
        assert causes == {
            "admin-lifetimes": "stage-speedup", "simulate": "unchanged",
        }

    def test_sub_floor_noise_is_unchanged(self, tmp_path):
        # 3ms -> 9ms is a 200% swing but under the absolute floor
        a = load_run(_write_run(tmp_path / "a", digest="a",
                                stages={"s": 0.003}))
        b = load_run(_write_run(tmp_path / "b", digest="b",
                                stages={"s": 0.009}))
        (row,) = diff_runs(a, b)["stages"]
        assert row["cause"] == "unchanged"


class TestRunRegistry:
    def _manifest(self, digest):
        return {"digest": digest, "config_hash": "cfg", "backend": "serial",
                "git": "abc"}

    def test_record_and_resolve_prefix(self, tmp_path):
        index = tmp_path / "runs.jsonl"
        manifest_path = tmp_path / "run1" / "run_manifest.json"
        manifest_path.parent.mkdir()
        manifest_path.write_text("{}")
        entry = record_run(index, self._manifest("feedbead" * 8),
                           {"manifest": manifest_path, "trace": None})
        assert entry["format"] == RUNS_FORMAT
        assert "trace" not in entry["artifacts"]
        resolved = resolve_run(index, "feedbead")
        assert resolved["digest"] == "feedbead" * 8
        assert run_path(resolved) == manifest_path.parent.resolve()

    def test_same_digest_collapses_to_newest(self, tmp_path):
        index = tmp_path / "runs.jsonl"
        record_run(index, self._manifest("abc123"), {"manifest": tmp_path / "old.json"})
        record_run(index, self._manifest("abc123"), {"manifest": tmp_path / "new.json"})
        resolved = resolve_run(index, "abc")
        assert resolved["artifacts"]["manifest"].endswith("new.json")

    def test_ambiguous_and_missing_prefixes(self, tmp_path):
        index = tmp_path / "runs.jsonl"
        record_run(index, self._manifest("abc111"), {})
        record_run(index, self._manifest("abc222"), {})
        with pytest.raises(RunLookupError):
            resolve_run(index, "abc")
        with pytest.raises(RunLookupError):
            resolve_run(index, "zzz")
        with pytest.raises(RunLookupError):
            resolve_run(index, "")
        resolve_run(index, "abc1")  # unique prefix still works

    def test_reader_tolerates_torn_and_foreign_lines(self, tmp_path):
        index = tmp_path / "runs.jsonl"
        record_run(index, self._manifest("abc111"), {})
        with index.open("a") as handle:
            handle.write('{"format": "other/v1", "digest": "zzz"}\n')
            handle.write('{"digest": "abc222", "form')  # torn final line
        entries = load_runs(index)
        assert [e["digest"] for e in entries] == ["abc111"]
        assert resolve_run(index, "abc")["digest"] == "abc111"

    def test_missing_index_loads_empty(self, tmp_path):
        assert load_runs(tmp_path / "absent.jsonl") == []
