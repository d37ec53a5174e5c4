"""Fork-per-op execution, host-speed probing, order statistics, host facts.

Every batch op runs in a child forked from one parent state, after a
full collection in the parent, so each op starts from the same heap and
the same collector counters.  Repeating ops in one process made stage
times bimodal: a collection falls into some repeats and not others.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import random
import select
import signal
import statistics
from dataclasses import dataclass, field
from time import perf_counter, thread_time
from typing import Any, Callable, Dict, List, Sequence, Tuple

__all__ = [
    "OpResult",
    "calibrate_ms",
    "host_facts",
    "maxrss_mb",
    "median",
    "percentile",
    "run_forked",
    "SpeedProbe",
]

#: A forked op that has not reported within this many seconds is killed
#: and counted as failed.
OP_TIMEOUT_S = 120.0


@dataclass
class OpResult:
    """What the parent learned about one forked op."""

    ok: bool
    payload: Dict[str, Any] = field(default_factory=dict)
    error: str = ""
    wall_s: float = 0.0
    maxrss_kb: int = 0


def _send(fd: int, document: Dict[str, Any]) -> None:
    with os.fdopen(fd, "wb") as out:
        out.write(json.dumps(document).encode("utf-8"))


def run_forked(fn: Callable[[], Dict[str, Any]], timeout: float = OP_TIMEOUT_S) -> OpResult:
    """Run ``fn`` in a forked child and return its JSON payload.

    An op that raises, exits non-zero, dies or hangs past ``timeout``
    comes back as ``ok=False`` with the reason; it never raises here.
    """
    gc.collect()
    read_fd, write_fd = os.pipe()
    started = perf_counter()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        os.close(read_fd)
        code = 1
        try:
            try:
                document = {"ok": True, "payload": fn()}
                code = 0
            except BaseException as exc:  # noqa: BLE001 - reported to the parent
                document = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            _send(write_fd, document)
        finally:
            os._exit(code)
    os.close(write_fd)
    chunks: List[bytes] = []
    timed_out = False
    deadline = started + timeout
    try:
        while True:
            remaining = deadline - perf_counter()
            if remaining <= 0 or not select.select([read_fd], [], [], remaining)[0]:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            chunk = os.read(read_fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(read_fd)
        _pid, status, usage = os.wait4(pid, 0)
    result = OpResult(ok=False, wall_s=perf_counter() - started, maxrss_kb=usage.ru_maxrss)
    if timed_out:
        result.error = f"op did not finish within {timeout:.0f}s"
        return result
    code = os.waitstatus_to_exitcode(status)
    try:
        document = json.loads(b"".join(chunks).decode("utf-8"))
    except ValueError:
        document = {}
    if code != 0:
        result.error = document.get("error") or f"op exited with code {code}"
        return result
    if not document.get("ok"):
        result.error = document.get("error") or "op sent no result"
        return result
    result.ok = True
    result.payload = document["payload"]
    return result


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sample."""
    if not sorted_values:
        return 0.0
    rank = round(q * (len(sorted_values) - 1))
    return float(sorted_values[max(0, min(len(sorted_values) - 1, rank))])


def _spin(iterations: int) -> float:
    """Seconds a fixed pure-Python loop of ``iterations`` steps takes."""
    started = perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc * 31 + i) % 1_000_003
    return perf_counter() - started


def calibrate_ms(rounds: int = 3) -> float:
    """Best of ``rounds`` timings of a fixed 200k-step pure-Python loop.

    It depends on nothing in the program, so a change in it between
    runs is the host getting faster or slower.
    """
    return min(_spin(200_000) for _ in range(rounds)) * 1e3


def _probe_step(heap: Sequence[int], order: Sequence[int]) -> Tuple[float, float]:
    """Thread-CPU seconds of one walk over ``heap`` in ``order``, and
    of a fixed arithmetic loop."""
    started = thread_time()
    acc = 0
    for i in order:
        acc += heap[i]
    walked = thread_time()
    acc = 0
    for i in range(3000):
        acc = (acc * 31 + i) % 1_000_003
    return walked - started, thread_time() - walked


class SpeedProbe:
    """Samples how fast the host runs Python while a run is measured.

    A shared 2-vCPU VM was seen to change speed by up to 2x
    within seconds (neighbours on shared cores), in CPU time as much as
    in wall time, so no timer can see it.  A forked process pinned to
    ``cpu`` times two fixed steps every :attr:`PERIOD_S`, in thread CPU
    time so the benchmark's own processes preempting it do not count:
    a scattered walk over a heap larger than the caches, and an
    arithmetic loop.

    The measured program slows down more than the loop and, under the
    heaviest contention, less than the walk, and which one it follows
    more closely changes with the workload and the neighbours.
    :meth:`slowdown` is therefore the geometric mean of the two, each
    relative to its time on the reference host, and a time divided by
    it is the time the same work takes there.
    """

    PERIOD_S = 0.1
    #: Thread-CPU seconds of the two steps on the reference host (a
    #: quiet 2-vCPU x86-64 VM).
    REFERENCE_WALK_S = 1.0e-3
    REFERENCE_SPIN_S = 0.22e-3

    def __init__(self, cpu: int) -> None:
        self.cpu = cpu
        self.samples: List[tuple] = []
        self._pid = 0
        self._read_fd = -1

    def start(self) -> "SpeedProbe":
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            os.close(read_fd)
            code = 1
            try:
                self._sample(write_fd)
                code = 0
            finally:
                os._exit(code)
        os.close(write_fd)
        self._pid, self._read_fd = pid, read_fd
        return self

    def _sample(self, write_fd: int) -> None:  # pragma: no cover - child only
        stop = []
        signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
        os.sched_setaffinity(0, {self.cpu})
        heap = [i * 7919 for i in range(200_000)]
        order = random.Random(2021).choices(range(len(heap)), k=10_000)
        samples = []
        while not stop:
            at = perf_counter()
            samples.append((at, *_probe_step(heap, order)))
            select.select([], [], [], self.PERIOD_S)
        _send(write_fd, {"samples": samples})

    def stop(self) -> None:
        """End the sampling process and collect its samples."""
        if not self._pid:
            return
        os.kill(self._pid, signal.SIGTERM)
        chunks: List[bytes] = []
        try:
            while True:
                chunk = os.read(self._read_fd, 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
        finally:
            os.close(self._read_fd)
            os.waitpid(self._pid, 0)
            self._pid = 0
        if chunks:
            self.samples = [tuple(s) for s in json.loads(b"".join(chunks))["samples"]]

    def slowdown(self, start: float, end: float) -> float:
        """How much slower than the reference the host ran in ``[start, end]``.

        An interval shorter than the sampling period takes the nearest
        samples; with no samples at all the host counts as the
        reference.
        """
        inside = [s for s in self.samples if start <= s[0] <= end]
        if not inside and self.samples:
            middle = (start + end) / 2
            inside = sorted(self.samples, key=lambda s: abs(s[0] - middle))[:4]
        if not inside:
            return 1.0
        walk = statistics.fmean(s[1] for s in inside) / self.REFERENCE_WALK_S
        spin = statistics.fmean(s[2] for s in inside) / self.REFERENCE_SPIN_S
        return (walk * spin) ** 0.5


def host_facts() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
    }


def maxrss_mb(kb: int) -> float:
    """``ru_maxrss`` (KiB on Linux) in MiB."""
    return kb / 1024.0
