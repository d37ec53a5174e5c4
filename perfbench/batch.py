"""The two batch workloads: ``pipeline`` and ``store-build``.

Both run every op in a child forked from the set-up parent (see
:func:`harness.run_forked`), so every op starts from the same heap and
the same collector state, as a fresh ``repro simulate`` or
``repro serve-build`` process would.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import shutil
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Optional

#: The one pinned scenario every workload runs (its own scale and seed).
SCENARIO = "mass-transfer"

#: Days of BGP activity a ``store-build`` op routes and publishes.
STORE_BUILD_DAYS = 30


def load_scenario(seed: Optional[int]):
    """The pinned scenario, with ``seed`` replacing its own when given."""
    from repro.scenario import get_scenario

    scenario = get_scenario(SCENARIO)
    if seed is not None and seed != scenario.seed:
        scenario = dataclasses.replace(scenario, seed=seed)
    return scenario


def taxonomy_summary(bundle) -> Dict[str, Any]:
    """The counts of a ``taxonomy/v1`` golden file, from a built bundle."""
    from repro.core.taxonomy import Category

    joint = bundle.joint
    taxonomy = joint.taxonomy
    return {
        "admin_counts": {c.value: taxonomy.admin_counts.get(c, 0) for c in Category},
        "op_counts": {c.value: taxonomy.op_counts.get(c, 0) for c in Category},
        "admin_lifetimes": joint.total_admin_lifetimes(),
        "op_lifetimes": joint.total_op_lifetimes(),
        "admin_asns": joint.total_admin_asns(),
        "op_asns": joint.total_op_asns(),
    }


class GcCounter:
    """Collections per generation and their total pause, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.seconds = 0.0
        self._started = 0.0

    def _callback(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._started = perf_counter()
        else:
            self.seconds += perf_counter() - self._started
            self.collections[info["generation"]] += 1

    def __enter__(self) -> "GcCounter":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc: Any) -> None:
        gc.callbacks.remove(self._callback)


class BatchWorkload:
    """One forked op per call of :meth:`op`; subclasses fill in the body."""

    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.scenario: Any = None
        self.expected: Optional[Dict[str, Any]] = None

    def setup(self) -> None:
        self.scenario = load_scenario(self.seed)

    def teardown(self) -> None:
        """Nothing outlives a batch set-up but memory."""

    def facts(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario.name,
            "scenario_digest": self.scenario.digest(),
            "scenario_seed": self.scenario.seed,
        }

    def body(self, op: int) -> Dict[str, Any]:
        """The measured work; returns what :meth:`check` compares."""
        raise NotImplementedError

    def cleanup(self, op: int) -> None:
        """Remove what one op left on disk (runs outside the timing)."""

    def op(self, op: int) -> Dict[str, Any]:
        """Run in the forked child: the timed body plus its collector count."""
        with GcCounter() as counter:
            started = perf_counter()
            output = self.body(op)
            wall_s = perf_counter() - started
        return {
            "wall_s": wall_s,
            "interval": [started, started + wall_s],
            "gc_collections": counter.collections,
            "gc_s": counter.seconds,
            "output": output,
        }

    def check(self, output: Dict[str, Any]) -> Optional[str]:
        """``None`` when ``output`` is right, else why it is not."""
        if self.expected is None:
            self.expected = output
            return None
        if output != self.expected:
            return f"output differs from the expected one: {output} != {self.expected}"
        return None


class PipelineWorkload(BatchWorkload):
    """A cold serial ``build_datasets`` of the scenario plus its taxonomy."""

    name = "pipeline"

    def setup(self) -> None:
        super().setup()
        from repro.scenario import scenario_fingerprint
        from repro.simulation import datasets  # noqa: F401 - imported in set-up

        self.config = self.scenario.compile()
        self.scenario_key = scenario_fingerprint(self.scenario)
        golden = (
            Path(__file__).resolve().parent.parent
            / "examples" / "scenarios" / "golden" / f"{SCENARIO}.json"
        )
        if self.scenario.seed == load_scenario(None).seed:
            document = json.loads(golden.read_text(encoding="utf-8"))
            self.expected = {key: document[key] for key in (
                "admin_counts", "op_counts", "admin_lifetimes", "op_lifetimes",
                "admin_asns", "op_asns",
            )}

    def body(self, op: int) -> Dict[str, Any]:
        from repro.simulation.datasets import build_datasets

        bundle = build_datasets(self.config, scenario_key=self.scenario_key)
        return taxonomy_summary(bundle)


class StoreBuildWorkload(BatchWorkload):
    """A cold ``build_store`` over the last days into a fresh directory,
    then ``StoreIndex.open`` with verification."""

    name = "store-build"

    def setup(self) -> None:
        super().setup()
        from repro.serve import index, store  # noqa: F401 - imported in set-up
        from repro.simulation.datasets import build_datasets

        config = self.scenario.compile()
        bundle = build_datasets(config)
        self.world = bundle.world
        self.admin_lives = bundle.admin_lives
        self.end = config.end_day
        self.start = max(config.start_day, self.end - STORE_BUILD_DAYS + 1)

    def store_dir(self, op: int) -> Path:
        return self.workdir / f"store-{op}"

    def body(self, op: int) -> Dict[str, Any]:
        from repro.serve.index import StoreIndex
        from repro.serve.store import INDEX_NAME, build_store

        directory = self.store_dir(op)
        build_store(
            directory, self.world, self.admin_lives,
            start=self.start, end=self.end, faults=None,
        )
        index = StoreIndex.open(directory, faults=None)
        return {
            "digest": index.digest,
            "index_sha256": hashlib.sha256(
                (directory / INDEX_NAME).read_bytes()
            ).hexdigest(),
            "asns": len(index),
            "bytes": store_bytes(directory),
        }

    def cleanup(self, op: int) -> None:
        shutil.rmtree(self.store_dir(op), ignore_errors=True)


def store_bytes(directory: Path) -> int:
    """Bytes of every file a published store holds."""
    return sum(path.stat().st_size for path in directory.rglob("*") if path.is_file())
