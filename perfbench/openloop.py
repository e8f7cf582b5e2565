"""Open-loop load for the decision service: seeded Poisson arrivals, one
process, one event loop.

Arrivals follow a precomputed schedule whatever the service does, so a
slow service builds a queue instead of receiving less load.  Each request
is timed from when it was *due*, which charges a stall to every request
it delays, and the generator records how late it issued each request.
Every request goes to an idle session (the per-session protocol is
strictly sequential); a finished session is evicted and replaced by a
fresh registration, so the session table takes writes beside decisions.
"""

from __future__ import annotations

import asyncio
import zlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

from common import median, percentile
from spans import CURRENT_OP

#: ABR kinds of the session pool, one of each per four registrations.
KINDS = ("bba", "mpc", "fugu", "sensei")
#: Tenants and their fair-share weights (gold 4 : bronze 1).
TENANTS = (("gold", 4.0), ("bronze", 1.0))
#: Sessions kept registered.  Decisions in flight are the offered rate
#: times the latency, so at 2000/s the pool covers 380 ms of queueing,
#: far beyond the latency of any step that meets :data:`SLO_P99_MS`: a
#: due request finds an idle session unless the service falls that far
#: behind.
POOL_SIZE = 768
#: Finished sessions kept for the online ≡ offline check.
FINISHED_SAMPLE = 24
#: Latency limit on the 99th percentile for ``max_rate_at_slo``; a failed
#: (shed or raised) decision counts as one over the limit.
SLO_P99_MS = 50.0
#: Lag growth (last fifth of a phase against the first) that marks the
#: generator — and so the loop it shares with the service — as falling
#: behind.
LAG_GROWTH_LIMIT_MS = 5.0


class SessionPool:
    """Registered sessions, split evenly between the tenants, with churn.

    Registrations walk a seeded permutation of the (video, trace) grid,
    four sessions per cell (one per ABR kind), so every seed offers the
    same mix of work in a different order.  A replacement keeps the
    tenant of the session it replaces.
    """

    def __init__(self, service, videos, traces, seed: int,
                 size: int = POOL_SIZE) -> None:
        self.service = service
        self.videos = list(videos)
        self.traces = list(traces)
        self.seed = seed
        # Which idle session a request lands on, and which finished ones
        # are kept, depend on completion order; registrations do not.
        self.pick_rng = np.random.default_rng([seed, 1])
        self.keep_rng = np.random.default_rng([seed, 2])
        self.cells = np.random.default_rng([seed, 3]).permutation(
            len(self.videos) * len(self.traces)
        )
        self.idle: List[object] = []
        #: A seeded uniform sample (reservoir) of finished, never-degraded
        #: sessions for the online ≡ offline check; bounded, so memory
        #: does not grow with the number of sessions a run finishes.
        self.finished: List[object] = []
        self.finished_count = 0
        self.registrations = 0
        for index in range(size):
            tenant = TENANTS[(index // len(KINDS)) % len(TENANTS)]
            self.idle.append(self._register(tenant))

    def _register(self, tenant) -> object:
        from repro.service import ABR_FACTORIES
        from repro.service.loadgen import synthetic_weights

        name, weight = tenant
        kind = KINDS[self.registrations % len(KINDS)]
        cell = int(self.cells[
            (self.registrations // len(KINDS)) % len(self.cells)
        ])
        encoded = self.videos[cell % len(self.videos)]
        trace = self.traces[cell // len(self.videos)]
        weights = (
            synthetic_weights(encoded.num_chunks) if kind == "sensei" else None
        )
        entry = self.service.register(
            tenant=name,
            session_id=f"{kind}-{self.registrations}",
            abr=ABR_FACTORIES[kind](),
            encoded=encoded,
            trace=trace,
            chunk_weights=weights,
            weight=weight,
        )
        self.registrations += 1
        return entry

    def take(self) -> Optional[object]:
        """A random idle session, or ``None`` when every one is busy."""
        if not self.idle:
            return None
        index = int(self.pick_rng.integers(len(self.idle)))
        self.idle[index], self.idle[-1] = self.idle[-1], self.idle[index]
        return self.idle.pop()

    def _keep(self, entry) -> None:
        if entry.degraded:
            return
        self.finished_count += 1
        if len(self.finished) < FINISHED_SAMPLE:
            self.finished.append(entry)
        else:
            slot = int(self.keep_rng.integers(self.finished_count))
            if slot < FINISHED_SAMPLE:
                self.finished[slot] = entry

    def give_back(self, entry) -> None:
        """Return a session; a finished one is evicted and replaced."""
        if entry.done:
            self.service.evict(entry.tenant, entry.session_id)
            self._keep(entry)
            weight = dict(TENANTS)[entry.tenant]
            entry = self._register((entry.tenant, weight))
        self.idle.append(entry)


@dataclass
class PhaseResult:
    """One fixed-rate phase of open-loop load."""

    rate: float
    latencies_s: List[float] = field(default_factory=list)
    late_s: List[float] = field(default_factory=list)
    degraded: int = 0
    #: Answered (not degraded) but slower than :data:`SLO_P99_MS`.
    slow: int = 0
    errors: int = 0
    no_idle: int = 0
    wall_s: float = 0.0
    flushes: int = 0
    size_flushes: int = 0
    items: int = 0

    @property
    def attempted(self) -> int:
        return len(self.late_s)

    @property
    def failed(self) -> int:
        return self.degraded + self.errors + self.no_idle

    @property
    def achieved_per_s(self) -> float:
        """Decisions answered without degradation per second of phase."""
        answered = len(self.latencies_s) - self.degraded
        return answered / self.wall_s if self.wall_s > 0 else 0.0

    def p(self, q: float) -> float:
        return 1e3 * percentile(self.latencies_s, q)

    @property
    def lag_growth_ms(self) -> float:
        fifth = max(1, len(self.late_s) // 5)
        return 1e3 * (median(self.late_s[-fifth:])
                      - median(self.late_s[:fifth]))

    @property
    def over_limit_share(self) -> float:
        """Share of attempted decisions that failed or took longer than
        :data:`SLO_P99_MS`."""
        return (self.failed + self.slow) / max(self.attempted, 1)

    @property
    def meets_slo(self) -> bool:
        """p99 within the limit with failures counted as over it, and no
        growing generator lag."""
        return (
            self.over_limit_share <= 0.01
            and self.lag_growth_ms <= LAG_GROWTH_LIMIT_MS
        )

    def summary(self) -> Dict[str, float]:
        return {
            "rate": self.rate,
            "attempted": self.attempted,
            "failed": self.failed,
            "degraded": self.degraded,
            "errors": self.errors,
            "no_idle": self.no_idle,
            "p50_ms": self.p(50.0),
            "p99_ms": self.p(99.0),
            "achieved_per_s": self.achieved_per_s,
            "late_ms_max": 1e3 * max(self.late_s, default=0.0),
            "lag_growth_ms": self.lag_growth_ms,
            "over_limit_share": self.over_limit_share,
            "mean_batch": self.items / self.flushes if self.flushes else 0.0,
            "size_flush_share": (
                self.size_flushes / self.flushes if self.flushes else 0.0
            ),
            "meets_slo": self.meets_slo,
        }


def poisson_schedule(rng: np.random.Generator, rate: float,
                     duration_s: float) -> np.ndarray:
    """Due times (seconds from phase start) of a Poisson process."""
    expected = int(rate * duration_s * 1.2) + 16
    gaps = rng.exponential(1.0 / rate, size=expected)
    due = np.cumsum(gaps)
    while due[-1] < duration_s:
        more = np.cumsum(rng.exponential(1.0 / rate, size=expected)) + due[-1]
        due = np.concatenate([due, more])
    return due[due < duration_s]


async def run_phase(service, pool: SessionPool, rate: float,
                    duration_s: float, label: str,
                    tracer=None) -> PhaseResult:
    """Offer ``rate`` decisions/s for ``duration_s`` and wait for every
    answer.  The arrival schedule is a function of the pool's seed and
    ``label`` alone.  With a ``tracer``, each decision is an op span."""
    result = PhaseResult(rate=rate)
    rng = np.random.default_rng([pool.seed, 4, zlib.crc32(label.encode())])
    schedule = poisson_schedule(rng, rate, duration_s)
    batcher = service.batcher
    flushes0 = batcher.flush_count
    size0 = batcher.size_flushes
    items0 = batcher.items_flushed
    pending = set()

    async def decide(entry, due: float, op: int) -> None:
        CURRENT_OP.set(f"{label}-{op}")
        handle = tracer.open() if tracer is not None else None
        try:
            response = await service.decide(entry.tenant, entry.session_id)
        except Exception:  # the service raised: a failed decision
            result.errors += 1
        else:
            latency = perf_counter() - due
            result.latencies_s.append(latency)
            if response.degraded:
                result.degraded += 1
            elif latency > SLO_P99_MS / 1e3:
                result.slow += 1
        finally:
            if tracer is not None:
                tracer.close(handle, "op.decision")
            pool.give_back(entry)

    started = perf_counter()
    for op, offset in enumerate(schedule):
        due = started + float(offset)
        now = perf_counter()
        if due > now:
            await asyncio.sleep(due - now)
            now = perf_counter()
        result.late_s.append(now - due)
        entry = pool.take()
        if entry is None:
            result.no_idle += 1
            continue
        task = asyncio.ensure_future(decide(entry, due, op))
        pending.add(task)
        task.add_done_callback(pending.discard)
    if pending:
        await asyncio.gather(*pending)
    result.wall_s = perf_counter() - started
    result.flushes = batcher.flush_count - flushes0
    result.size_flushes = batcher.size_flushes - size0
    result.items = batcher.items_flushed - items0
    return result


@dataclass
class Step:
    """One offered rate, run as several equal parts.

    A short stall of the process (a garbage-collector pause, another
    tenant on the host) spoils the part it lands in; taking each figure
    as the median over parts keeps one such part from deciding the step.
    """

    rate: float
    parts: List[PhaseResult]

    def _median(self, fn) -> float:
        return median([fn(part) for part in self.parts])

    def p(self, q: float) -> float:
        return self._median(lambda part: part.p(q))

    @property
    def achieved_per_s(self) -> float:
        return self._median(lambda part: part.achieved_per_s)

    @property
    def meets_slo(self) -> bool:
        """Most parts met the limit."""
        return 2 * sum(part.meets_slo for part in self.parts) > len(self.parts)

    @property
    def attempted(self) -> int:
        return sum(part.attempted for part in self.parts)

    @property
    def failed(self) -> int:
        return sum(part.failed for part in self.parts)

    def summary(self) -> Dict[str, object]:
        parts = [part.summary() for part in self.parts]
        return {
            "rate": self.rate,
            "p50_ms": self.p(50.0),
            "p99_ms": self.p(99.0),
            "achieved_per_s": self.achieved_per_s,
            "meets_slo": self.meets_slo,
            "attempted": self.attempted,
            "failed": self.failed,
            "degraded": sum(p["degraded"] for p in parts),
            "errors": sum(p["errors"] for p in parts),
            "late_ms_max": max(p["late_ms_max"] for p in parts),
            "mean_batch": median([p["mean_batch"] for p in parts]),
            "size_flush_share": median([p["size_flush_share"] for p in parts]),
            "parts": parts,
        }


async def run_step(service, pool: SessionPool, rate: float, part_s: float,
                   parts: int, label: str, tracer=None) -> Step:
    return Step(rate, [
        await run_phase(service, pool, rate, part_s, f"{label}.{index}",
                        tracer)
        for index in range(parts)
    ])


def ladder_rung(k: int) -> float:
    """Rung ``k`` of the geometric ladder 1000 × 1.1^k (k may be < 0)."""
    return 1000.0 * 1.1 ** k
