"""Shared pieces of the workloads: the result shape, statistics, the run
record and the peak-memory probe."""

from __future__ import annotations

import gc
import hashlib
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent

#: How many times each workload repeats its set-up; ``setup_s`` is the
#: median, so one slow repetition does not move the metric.
SETUP_REPEATS = 3


@dataclass
class Measurement:
    """One measured phase of a workload.

    ``end_to_end`` holds the contract metrics the phase measures (generic
    names; ``run.py`` adds ``setup_s`` and ``peak_rss_mb``); ``named``
    holds the same figures under their per-workload names
    (``cells_per_s``, ``decide_p99_ms_r2000``, …) as ``(value, unit)``.
    ``primary`` is the figure the tracing overhead compares, oriented so
    that higher is better.
    """

    attempted: int
    failed: int
    outputs: List[object]
    primary: float
    end_to_end: Dict[str, float]
    named: Dict[str, tuple]
    ops: int
    detail: Dict[str, object] = field(default_factory=dict)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 for no samples.

    Below ``100 / (100 - q)`` samples the nearest rank is the maximum.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MiB (pool workers are
    separate processes and not included)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(build: Callable[[], object],
                 close: Optional[Callable[[object], None]] = None) -> tuple:
    """Run ``build`` :data:`SETUP_REPEATS` times; return the last result,
    the median wall time and every wall time.  Each earlier result is
    closed (untimed) and dropped before the next build starts, so peak
    memory reflects one set-up, not several."""
    durations: List[float] = []
    result = None
    for _ in range(SETUP_REPEATS):
        if result is not None and close is not None:
            close(result)
        result = None
        gc.collect()
        started = time.perf_counter()
        result = build()
        durations.append(time.perf_counter() - started)
    return result, median(durations), durations


def source_digest() -> str:
    """sha256 over the program sources (``src/**/*.py``), so a record made
    outside a git checkout still identifies the code it measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_record(seed: int, backend: str) -> Dict[str, object]:
    """What the run ran under: core count, the backend ``auto()`` resolved
    to, the planner kernel configuration, the seed and the revision."""
    from repro.abr import planner
    from repro.engine.report import environment_fingerprint, git_revision

    impl, dtype = planner.kernel_config()
    return {
        "cpu_count": os.cpu_count(),
        "backend": backend,
        "kernel_config": {"impl": impl, "dtype": dtype},
        "seed": seed,
        # Outside a git work tree (a plain checkout) the source digest
        # alone identifies the code; git is not asked to search upward.
        "git_revision": (
            git_revision(ROOT) if (ROOT / ".git").exists() else None
        ),
        "source_sha256": source_digest(),
        "environment": environment_fingerprint(),
    }


def recovered(fault_delta: Dict[str, object]) -> bool:
    """Whether a runner fault-log delta shows any recovery (a retried,
    timed-out, crashed or fallen-back shard)."""
    return any(
        fault_delta.get(key, 0)
        for key in ("retries", "serial_fallbacks", "worker_crashes",
                    "timeouts", "pickle_failures")
    )
